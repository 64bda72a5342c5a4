// Fixture module for the orphan-module check.

#ifndef FIXTURE_CRDT_WIDGET_H_
#define FIXTURE_CRDT_WIDGET_H_

int Widget();

#endif  // FIXTURE_CRDT_WIDGET_H_
