// qpip-lint-layer: nic
// T2 fixture: mutable statics and foreign-queue scheduling fire;
// constants and casts do not.

static int callCount = 0;
static constexpr int kMaxRetries = 4;

void
touch(Mailbox &mb, const EventKey &key, EventFn fn)
{
    static bool warned = false;
    callCount += warned ? 1 : static_cast<int>(kMaxRetries);
    mb.peer().eventQueue().schedule(key, fn);
    eqRemote->schedule(key, fn);
}
