// Fixture umbrella header: including a module here does not make it used.

#ifndef FIXTURE_EVC_H_
#define FIXTURE_EVC_H_

#include "crdt/widget.h"

#endif  // FIXTURE_EVC_H_
