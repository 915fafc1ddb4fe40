// qpip-lint-layer: apps
// park fixture: the same shapes, each carrying its waiver.

void
spin(HostOs &os, Cq &cq, Cpu &cpu)
{
    // qpip-lint: ref-capture-ok(fixture: cq is owned by the caller and outlives the spin loop)
    cpu.park(cq.ring().spinner(), 60, [&cq] { cq.poll(); });
    // qpip-lint: partition-ok(fixture: the queue-side handoff is under test)
    os.eventQueue().hold([cq = &cq] { cq->poll(); });
}
