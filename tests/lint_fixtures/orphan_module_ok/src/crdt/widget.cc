#include "crdt/widget.h"

int Widget() { return 0; }
