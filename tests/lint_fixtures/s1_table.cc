// S1 fixture: leaves described by a shared stat table are registration
// literals like any other, so lookups resolve against them and a typo
// of one still fires.

struct StatRegistry;
template <typename T> struct StatTable;
struct ConnStats;

const StatTable<ConnStats> &
connTable()
{
    static const StatTable<ConnStats> table = [] {
        StatTable<ConnStats> t;
        t.add("rtoFires", &ConnStats::rtoFires);
        t.add("zeroWindowProbes", &ConnStats::zeroWindowProbes);
        return t;
    }();
    return table;
}

unsigned long
readConn(StatRegistry &reg)
{
    return reg.counterValue("host0.conn7.zeroWindowProbes") +
           reg.counterValue("host0.conn7.rtoFire");
}
