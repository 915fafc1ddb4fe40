// qpip-lint-layer: sim
// Q1 fixture: the same member, carrying its waiver.

#include <deque>

struct Slab
{
    // qpip-lint: deque-ok(fixture: records need fixed addresses)
    std::deque<int> records;
};
