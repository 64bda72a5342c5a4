// Fixture test: tests do not count as users either.

#include "crdt/widget.h"

int main() { return Widget(); }
