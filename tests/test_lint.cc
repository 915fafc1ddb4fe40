/**
 * @file
 * qpip-lint's own test coverage: each rule fires on its fixture file
 * with the exact rule id and file:line, a waived line stays silent,
 * the cross-file families (S1/W2/T2/E1) and the waiver audit (A1)
 * fire on their project fixtures, SARIF output is well-formed, and —
 * the real gate — the entire tree lints clean under the full
 * project-wide pass.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hh"
#include "sarif.hh"

using namespace qpip::lint;

namespace {

std::string
fixture(const std::string &name)
{
    return std::string(QPIP_LINT_FIXTURES) + "/" + name;
}

/** All diagnostics for one fixture file. */
std::vector<Diagnostic>
lintFixture(const std::string &name)
{
    return lintPath(fixture(name));
}

/** Fixture files as SourceFiles, paths absolute (keeps S1 in scope). */
std::vector<SourceFile>
loadFixtures(const std::vector<std::string> &names)
{
    std::vector<std::string> paths;
    for (const auto &n : names)
        paths.push_back(fixture(n));
    return readSources("", paths);
}

/** Options running only the cross-file families, audit off. */
ProjectOptions
projectOnly()
{
    ProjectOptions opts;
    opts.fileRules = false;
    opts.projectRules = true;
    opts.auditWaivers = false;
    return opts;
}

} // namespace

TEST(LintRules, D1FiresOnRand)
{
    const auto diags = lintFixture("d1_nondet.cc");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D1");
    EXPECT_EQ(diags[0].line, 9);
    EXPECT_EQ(diags[0].file, fixture("d1_nondet.cc"));
}

TEST(LintRules, D2FiresOnUnorderedRangeFor)
{
    const auto diags = lintFixture("d2_unordered_iter.cc");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D2");
    EXPECT_EQ(diags[0].line, 11);
}

TEST(LintRules, L1FiresOnUpwardInclude)
{
    const auto diags = lintFixture("l1_layering.cc");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "L1");
    EXPECT_EQ(diags[0].line, 4);
    EXPECT_NE(diags[0].message.find("inet must not include host"),
              std::string::npos);
}

TEST(LintRules, L1FiresOnPrivateTransportInclude)
{
    const auto diags = lintFixture("l1_transport.cc");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "L1");
    EXPECT_EQ(diags[0].line, 6);
    EXPECT_NE(diags[0].message.find(
                  "nic/transport/ headers are private"),
              std::string::npos);
}

TEST(LintRules, W1FiresOnMemcpyAndReinterpretCast)
{
    const auto diags = lintFixture("w1_wirecast.cc");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "W1");
    EXPECT_EQ(diags[0].line, 12);
    EXPECT_EQ(diags[1].rule, "W1");
    EXPECT_EQ(diags[1].line, 13);
}

TEST(LintRules, T1FiresOnThreadingPrimitives)
{
    const auto diags = lintFixture("t1_thread.cc");
    ASSERT_EQ(diags.size(), 4u);
    for (const auto &d : diags)
        EXPECT_EQ(d.rule, "T1");
    EXPECT_EQ(diags[0].line, 4);  // #include <mutex>
    EXPECT_EQ(diags[1].line, 6);  // std::mutex
    EXPECT_EQ(diags[2].line, 8);  // thread_local
    EXPECT_EQ(diags[3].line, 16); // std::lock_guard
    // The waived std::atomic on line 11 stays silent.
    EXPECT_NE(diags[0].message.find("#include <mutex>"),
              std::string::npos);
}

TEST(LintRules, T1ExemptsSimLayer)
{
    // The parallel engine's own layer may use the primitives.
    const std::string src = "#include <mutex>\n"
                            "#include <atomic>\n"
                            "std::mutex m;\n"
                            "thread_local int t = 0;\n";
    EXPECT_TRUE(lintFile("src/sim/engine.cc", src).empty());
    // Any other src layer may not.
    EXPECT_FALSE(lintFile("src/host/stack.cc", src).empty());
}

TEST(LintRules, Q1FiresOnDeque)
{
    const auto diags = lintFixture("q1_fire.cc");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "Q1");
    EXPECT_EQ(diags[0].line, 9);
    EXPECT_NE(diags[0].message.find("sim::RingFifo"), std::string::npos);
}

TEST(LintRules, Q1WaivedDequeStaysSilentAndIsNotStale)
{
    EXPECT_TRUE(lintFixture("q1_waived.cc").empty());
    ProjectOptions opts;
    opts.projectRules = false;
    EXPECT_TRUE(lintProject(loadFixtures({"q1_waived.cc"}), opts).empty());
}

TEST(LintRules, Q1SkipsFilesOutsideSrc)
{
    const std::string src = "#include <deque>\n"
                            "std::deque<int> model;\n";
    EXPECT_TRUE(lintFile("tests/x.cc", src).empty());
    EXPECT_FALSE(lintFile("src/apps/x.cc", src).empty());
}

TEST(LintRules, H1FiresOnIfndefGuard)
{
    const auto diags = lintFixture("h1_guard.hh");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "H1");
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, WaivedLineStaysSilent)
{
    EXPECT_TRUE(lintFixture("waived.cc").empty());
}

TEST(LintRules, DiagnosticFormatIsRuleFileLine)
{
    const auto diags = lintFixture("d1_nondet.cc");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].format().rfind(
                  "D1 " + fixture("d1_nondet.cc") + ":9: ", 0),
              0u);
}

// --- rule corners driven through lintFile() directly ---------------

TEST(LintRules, BannedTokenInCommentOrStringIgnored)
{
    const std::string src = "// qpip-lint-layer: sim\n"
                            "// std::rand() in a comment\n"
                            "const char *s = \"system_clock\";\n";
    EXPECT_TRUE(lintFile("src/sim/x.cc", src).empty());
}

TEST(LintRules, D1FiresOnPointerKeyedMap)
{
    const std::string src =
        "#include <map>\n"
        "struct C;\n"
        "std::map<C *, int> owners;\n";
    const auto diags = lintFile("src/nic/x.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D1");
    EXPECT_EQ(diags[0].line, 3);
}

TEST(LintRules, D2SeesThroughTypeAlias)
{
    const std::string src =
        "#include <unordered_map>\n"
        "using Table = std::unordered_map<int, int>;\n"
        "int f(Table &t) {\n"
        "    int n = 0;\n"
        "    for (auto it = t.begin(); it != t.end(); ++it)\n"
        "        ++n;\n"
        "    return n;\n"
        "}\n";
    const auto diags = lintFile("src/inet/x.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D2");
    EXPECT_EQ(diags[0].line, 5);
}

TEST(LintRules, WaiverRequiresNonEmptyReason)
{
    const std::string src =
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> t;\n"
        "int f() {\n"
        "    int n = 0;\n"
        "    for (auto &[k, v] : t) // qpip-lint: unordered-iter-ok()\n"
        "        n += k + v;\n"
        "    return n;\n"
        "}\n";
    const auto diags = lintFile("src/inet/x.cc", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "D2");
}

TEST(LintRules, TopLayerFilesSkipSrcOnlyRules)
{
    // Same body as the D2 fixture, but classified as a test file.
    const std::string src = "#include <unordered_map>\n"
                            "std::unordered_map<int, int> t;\n"
                            "int f() {\n"
                            "    int n = 0;\n"
                            "    for (auto &[k, v] : t)\n"
                            "        n += k + v;\n"
                            "    return n;\n"
                            "}\n";
    EXPECT_TRUE(lintFile("tests/x.cc", src).empty());
}

TEST(LintLayers, ClassifyAndRank)
{
    EXPECT_EQ(classifyPath("src/sim/clock.hh"), Layer::Sim);
    EXPECT_EQ(classifyPath("src/inet/tcp_conn.cc"), Layer::Inet);
    EXPECT_EQ(classifyPath("tests/test_tcp.cc"), Layer::Top);
    EXPECT_EQ(classifyPath("bench/fig3_rtt.cpp"), Layer::Top);
    EXPECT_LT(layerRank(Layer::Sim), layerRank(Layer::Net));
    EXPECT_LT(layerRank(Layer::Net), layerRank(Layer::Inet));
    EXPECT_LT(layerRank(Layer::Inet), layerRank(Layer::Host));
    EXPECT_LT(layerRank(Layer::Host), layerRank(Layer::Nic));
    EXPECT_LT(layerRank(Layer::Nic), layerRank(Layer::Qpip));
    EXPECT_LT(layerRank(Layer::Qpip), layerRank(Layer::Apps));
    EXPECT_LT(layerRank(Layer::Apps), layerRank(Layer::Top));
}

// --- the gate: the real tree lints clean ---------------------------

TEST(LintTree, SrcTreeIsClean)
{
    const std::string root = QPIP_SOURCE_DIR;
    const auto files = collectTree(root);
    ASSERT_GT(files.size(), 100u) << "tree scan found too few files";

    std::vector<Diagnostic> all;
    for (const auto &f : files) {
        for (auto &d : lintPath(root + "/" + f))
            all.push_back(d);
    }
    for (const auto &d : all)
        ADD_FAILURE() << d.format();
    EXPECT_TRUE(all.empty());
}

TEST(LintTree, FixturesAreExcludedFromTreeScan)
{
    for (const auto &f : collectTree(QPIP_SOURCE_DIR))
        EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
}

// --- cross-file rule families over the project fixtures ------------

TEST(LintProjectRules, S1FiresOnRegistryViolations)
{
    const auto diags =
        lintProject(loadFixtures({"s1_fire.cc"}), projectOnly());
    ASSERT_EQ(diags.size(), 4u);
    for (const auto &d : diags)
        EXPECT_EQ(d.rule, "S1");
    EXPECT_EQ(diags[0].line, 11); // "pkts.drop rate": grammar
    EXPECT_NE(diags[0].message.find("dotted-path"), std::string::npos);
    EXPECT_EQ(diags[1].line, 12); // second add of "pkts.in" on 'g'
    EXPECT_NE(diags[1].message.find("first at line 10"),
              std::string::npos);
    EXPECT_EQ(diags[2].line, 13); // "pkts.*": glob in registration
    EXPECT_NE(diags[2].message.find("glob characters"),
              std::string::npos);
    EXPECT_EQ(diags[3].line, 20); // "pkts.absent": unresolved lookup
    EXPECT_NE(diags[3].message.find("pkts.absent"), std::string::npos);
    EXPECT_NE(diags[3].message.find("silently read 0"),
              std::string::npos);
}

TEST(LintProjectRules, S1IndexesStatTableLeaves)
{
    const auto diags =
        lintProject(loadFixtures({"s1_table.cc"}), projectOnly());
    // Only the typo'd table leaf fires; its correct sibling resolves.
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "S1");
    EXPECT_EQ(diags[0].line, 25);
    EXPECT_NE(diags[0].message.find("'host0.conn7.rtoFire'"),
              std::string::npos);
    EXPECT_NE(diags[0].message.find("silently read 0"),
              std::string::npos);
}

TEST(LintProjectRules, W2FiresOnDivergenceAndOrphans)
{
    const auto diags =
        lintProject(loadFixtures({"w2_fire.cc"}), projectOnly());
    ASSERT_EQ(diags.size(), 3u);
    for (const auto &d : diags)
        EXPECT_EQ(d.rule, "W2");
    EXPECT_EQ(diags[0].line, 15); // parseFoo reads u32 where u16 went
    EXPECT_NE(diags[0].message.find("field op #2"), std::string::npos);
    EXPECT_NE(diags[0].message.find("put 'u16' vs get 'u32'"),
              std::string::npos);
    EXPECT_EQ(diags[1].line, 26); // serializeOrphanPing, no reader
    EXPECT_NE(diags[1].message.find("no matching parseOrphanPing"),
              std::string::npos);
    EXPECT_EQ(diags[2].line, 34); // parseOrphanPong, no writer
    EXPECT_NE(diags[2].message.find("no matching serializeOrphanPong"),
              std::string::npos);
}

TEST(LintProjectRules, T2FiresOnStaticsAndForeignScheduling)
{
    const auto diags =
        lintProject(loadFixtures({"t2_fire.cc"}), projectOnly());
    ASSERT_EQ(diags.size(), 4u);
    for (const auto &d : diags)
        EXPECT_EQ(d.rule, "T2");
    EXPECT_EQ(diags[0].line, 5);  // namespace-scope mutable static
    EXPECT_EQ(diags[1].line, 11); // function-local mutable static
    EXPECT_EQ(diags[2].line, 13); // eventQueue().schedule(...)
    EXPECT_EQ(diags[3].line, 14); // eqRemote->schedule(...)
    EXPECT_NE(diags[0].message.find("mutable static state"),
              std::string::npos);
    EXPECT_NE(diags[2].message.find("Link/Mailbox"), std::string::npos);
    // static constexpr (line 6) and static_cast (line 12) stay quiet.
}

TEST(LintProjectRules, E1FiresOnRefCaptures)
{
    const auto diags =
        lintProject(loadFixtures({"e1_fire.cc"}), projectOnly());
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "E1");
    EXPECT_EQ(diags[0].line, 8); // [&] into schedule()
    EXPECT_NE(diags[0].message.find("[&]"), std::string::npos);
    EXPECT_NE(diags[0].message.find("schedule()"), std::string::npos);
    EXPECT_EQ(diags[1].rule, "E1");
    EXPECT_EQ(diags[1].line, 9); // [&conn, seq] into scheduleIn()
    EXPECT_NE(diags[1].message.find("[&conn]"), std::string::npos);
    EXPECT_NE(diags[1].message.find("scheduleIn()"), std::string::npos);
    // Value captures (lines 10-11) and table[slot] stay quiet.
}

TEST(LintProjectRules, ParkIsADeferredSink)
{
    // A parked spin poll's closure outlives its frame like any
    // scheduled event (E1), and hold() puts it straight into an event
    // queue (T2).
    const auto diags =
        lintProject(loadFixtures({"park_fire.cc"}), projectOnly());
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "E1");
    EXPECT_EQ(diags[0].line, 9); // [&cq] into park()
    EXPECT_NE(diags[0].message.find("park()"), std::string::npos);
    EXPECT_EQ(diags[1].rule, "T2");
    EXPECT_EQ(diags[1].line, 10); // eventQueue().hold(...)
    EXPECT_NE(diags[1].message.find("Link/Mailbox"), std::string::npos);
    // The waived copy is silent, and its waivers count as used.
    const auto waived = lintProject(loadFixtures({"park_waived.cc"}));
    EXPECT_TRUE(waived.empty())
        << (waived.empty() ? "" : waived[0].format());
}

TEST(LintProjectRules, WaivedFixturesStaySilentAuditIncluded)
{
    // Full default options: file rules, project rules, and the A1
    // audit — the waiver both suppresses the finding and counts as
    // used, so nothing fires at all.
    for (const char *name : {"s1_waived.cc", "w2_waived.cc",
                             "t2_waived.cc", "e1_waived.cc"}) {
        const auto diags = lintProject(loadFixtures({name}));
        EXPECT_TRUE(diags.empty())
            << name << ": " << (diags.empty() ? "" : diags[0].format());
    }
}

TEST(LintProjectRules, DiffModeReportsOnlyListedFiles)
{
    const auto files = loadFixtures({"s1_fire.cc", "t2_fire.cc"});
    ProjectOptions opts = projectOnly();
    opts.reportOnly.insert(fixture("t2_fire.cc"));
    const auto diags = lintProject(files, opts);
    ASSERT_EQ(diags.size(), 4u);
    for (const auto &d : diags) {
        EXPECT_EQ(d.rule, "T2");
        EXPECT_EQ(d.file, fixture("t2_fire.cc"));
    }
}

// --- the waiver audit (A1) -----------------------------------------

TEST(LintAudit, A1FlagsStaleWaivers)
{
    const auto diags = lintProject(loadFixtures({"stale_waiver.cc"}));
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "A1");
    EXPECT_EQ(diags[0].line, 7);
    EXPECT_NE(diags[0].message.find("stale waiver 'stat-path-ok'"),
              std::string::npos);
    EXPECT_EQ(diags[1].rule, "A1");
    EXPECT_EQ(diags[1].line, 9);
    EXPECT_NE(diags[1].message.find("stale waiver 'ref-capture-ok'"),
              std::string::npos);
}

TEST(LintAudit, A1FlagsUnknownWaiverToken)
{
    const auto diags = lintProject(loadFixtures({"unknown_waiver.cc"}));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "A1");
    EXPECT_EQ(diags[0].line, 7);
    EXPECT_NE(
        diags[0].message.find("unknown waiver token 'made-up-ok'"),
        std::string::npos);
}

TEST(LintAudit, StaleWaiversNotAuditedWhenRuleFamilyDisabled)
{
    // With the project families off, their waiver tokens are not
    // audited (the rules never had a chance to use them).
    ProjectOptions opts;
    opts.projectRules = false;
    const auto diags =
        lintProject(loadFixtures({"stale_waiver.cc"}), opts);
    EXPECT_TRUE(diags.empty());
}

TEST(LintWaivers, TokenMappingRoundTrips)
{
    const char *rules[] = {"D1", "D2", "L1", "W1", "T1",
                           "S1", "W2", "T2", "E1", "Q1"};
    for (const char *r : rules) {
        const std::string tok = waiverToken(r);
        ASSERT_FALSE(tok.empty()) << r;
        EXPECT_STREQ(ruleForWaiverToken(tok), r);
    }
    EXPECT_STREQ(waiverToken("A1"), ""); // A1 itself is unwaivable
    EXPECT_STREQ(ruleForWaiverToken("made-up-ok"), "");
}

// --- mechanical fixes (--fix) --------------------------------------

TEST(LintFixes, ApplyFixesStripsStaleWaivers)
{
    const auto files = loadFixtures({"stale_waiver.cc"});
    const auto diags = lintProject(files);
    ASSERT_EQ(diags.size(), 2u);
    bool changed = false;
    const std::string fixed =
        applyFixes(files[0].contents, diags, changed);
    EXPECT_TRUE(changed);
    EXPECT_EQ(fixed.find("qpip-lint:"), std::string::npos);
    // The fixed text is clean, audit included.
    std::vector<SourceFile> refixed = files;
    refixed[0].contents = fixed;
    EXPECT_TRUE(lintProject(refixed).empty());
}

TEST(LintFixes, ApplyFixesInsertsPragmaOnce)
{
    const std::string src = "struct X {};\n";
    const auto diags = lintFile("src/net/x.hh", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "H1");
    bool changed = false;
    const std::string fixed = applyFixes(src, diags, changed);
    EXPECT_TRUE(changed);
    EXPECT_EQ(fixed.rfind("#pragma once\n", 0), 0u);
    EXPECT_TRUE(lintFile("src/net/x.hh", fixed).empty());
}

TEST(LintFixes, ApplyFixesIsIdentityWithoutFixableFindings)
{
    bool changed = true;
    const std::string src = "int x = 0;\n";
    EXPECT_EQ(applyFixes(src, {}, changed), src);
    EXPECT_FALSE(changed);
}

// --- SARIF emission ------------------------------------------------

namespace {

/** Braces/brackets balance and every string closes. */
bool
jsonShapeOk(const std::string &s)
{
    int depth = 0;
    bool inStr = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (inStr) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inStr = false;
        } else if (c == '"') {
            inStr = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !inStr;
}

} // namespace

TEST(LintSarif, EmitsWellFormedSarif210)
{
    std::vector<Diagnostic> diags;
    diags.push_back(
        Diagnostic{"E1", "src/nic/x.cc", 12, "a \"quoted\" message"});
    diags.push_back(Diagnostic{"S1", "src\\net\\y.cc", 3, "path"});
    const std::string s = toSarif(diags);
    EXPECT_TRUE(jsonShapeOk(s));
    EXPECT_NE(s.find("sarif-schema-2.1.0.json"), std::string::npos);
    EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"qpip-lint\""), std::string::npos);
    EXPECT_NE(s.find("\"ruleId\": \"E1\""), std::string::npos);
    EXPECT_NE(s.find("\"startLine\": 12"), std::string::npos);
    EXPECT_NE(s.find("\"level\": \"error\""), std::string::npos);
    // Message text is JSON-escaped; backslash paths normalize to '/'.
    EXPECT_NE(s.find("a \\\"quoted\\\" message"), std::string::npos);
    EXPECT_NE(s.find("src/net/y.cc"), std::string::npos);
    // Both rules get driver metadata entries.
    EXPECT_NE(s.find("\"id\": \"E1\""), std::string::npos);
    EXPECT_NE(s.find("\"id\": \"S1\""), std::string::npos);
}

TEST(LintSarif, EmptyRunIsStillValid)
{
    const std::string s = toSarif({});
    EXPECT_TRUE(jsonShapeOk(s));
    EXPECT_NE(s.find("\"results\": ["), std::string::npos);
}

// --- the index covers the real tree --------------------------------

TEST(LintTree, IndexCoversRealTree)
{
    const std::string root = QPIP_SOURCE_DIR;
    const auto sources = readSources(root, collectTree(root));
    const IndexSummary sum = summarizeIndex(sources);
    // Whole-literal registrations land as leaf paths.
    EXPECT_TRUE(sum.statLeafPaths.count("faultDrops"));
    EXPECT_TRUE(sum.statLeafPaths.count("segsOut"));
    // Tag-function return literals (fwStageTag) land as segments.
    EXPECT_TRUE(sum.statSegments.count("getWr"));
    // The wire pairs the paper's message formats depend on.
    EXPECT_TRUE(sum.serializers.count("RdmaMessage"));
    EXPECT_TRUE(sum.parsers.count("RdmaMessage"));
    EXPECT_TRUE(sum.serializers.count("RudMessage"));
    EXPECT_TRUE(sum.parsers.count("RudMessage"));
    // W2-clean tree: every writer has its reader and vice versa.
    EXPECT_EQ(sum.serializers, sum.parsers);
}

// --- the project-wide gate: full pass over the real tree -----------

TEST(LintTree, ProjectPassIsCleanWithAuditEnabled)
{
    const std::string root = QPIP_SOURCE_DIR;
    const auto sources = readSources(root, collectTree(root));
    ASSERT_GT(sources.size(), 100u);
    const auto diags = lintProject(sources); // every family + A1
    for (const auto &d : diags)
        ADD_FAILURE() << d.format();
    EXPECT_TRUE(diags.empty());
}
