// qpip-lint-layer: apps
// scheduleIdle fixture: a by-reference capture in a spin poll's
// closure fires E1; scheduling it straight into an event queue fires
// T2.

void
spin(HostOs &os, Cq &cq, Cpu &cpu)
{
    os.scheduleIdle(&cpu, ready, 10, [&cq] { cq.poll(); });
    os.eventQueue().scheduleIdle(&cpu, ready, 20, [cq = &cq] { cq->poll(); });
}
