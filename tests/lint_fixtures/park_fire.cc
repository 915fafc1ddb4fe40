// qpip-lint-layer: apps
// park fixture: a by-reference capture in a parked spin poll's
// closure fires E1; scheduling it straight into an event queue fires
// T2.

void
spin(HostOs &os, Cq &cq, Cpu &cpu)
{
    cpu.park(cq.ring().spinner(), 60, [&cq] { cq.poll(); });
    os.eventQueue().hold([cq = &cq] { cq->poll(); });
}
