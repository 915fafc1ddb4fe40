// qpip-lint-layer: apps
// scheduleIdle fixture: the same shapes, each carrying its waiver.

void
spin(HostOs &os, Cq &cq, Cpu &cpu)
{
    // qpip-lint: ref-capture-ok(fixture: cq is owned by the caller and outlives the spin loop)
    os.scheduleIdle(&cpu, ready, 10, [&cq] { cq.poll(); });
    // qpip-lint: partition-ok(fixture: the queue-side handoff is under test)
    os.eventQueue().scheduleIdle(&cpu, ready, 20, [cq = &cq] { cq->poll(); });
}
