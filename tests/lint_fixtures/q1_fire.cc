// qpip-lint-layer: nic
// Q1 fixture: a std::deque member fires; the word in a comment or a
// string does not.

#include <deque>

struct Rings
{
    std::deque<int> sendQ;
    const char *why = "std::deque";
};
