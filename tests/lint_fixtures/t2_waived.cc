// qpip-lint-layer: nic
// T2 fixture: the same shapes, each carrying its waiver.

// qpip-lint: partition-ok(fixture: cold counter, written only before the partitions start)
static int bootCount = 0;

void
touch(Mailbox &mb, const EventKey &key, EventFn fn)
{
    // qpip-lint: partition-ok(fixture: the link-side handoff is under test)
    mb.peer().eventQueue().schedule(key, fn);
}
