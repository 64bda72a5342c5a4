// Fixture example: one example (a .cpp file) is a user.

#include "crdt/widget.h"

int main() { return Widget(); }
