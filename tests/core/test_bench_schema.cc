/** @file Tests for the bench harness: the writeBenchJson envelope
 *  is pinned here (and any BENCH_*.json committed at the repo root
 *  must conform), as are the study-flag parser and the latency
 *  summary every bench main shares. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_obs_util.hh"
#include "core/obs/json.hh"

namespace {

namespace fs = std::filesystem;
using trust::core::obs::JsonValue;

/** The envelope contract every BENCH_*.json must satisfy. */
void
expectBenchEnvelope(const std::string &text, const std::string &what)
{
    const auto doc = JsonValue::parse(text);
    ASSERT_TRUE(doc.has_value()) << what << ": not valid JSON";
    ASSERT_TRUE(doc->isObject()) << what;

    const JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr) << what << ": missing \"schema\"";
    EXPECT_TRUE(schema->isNumber()) << what;
    EXPECT_EQ(schema->asNumber(), 1.0) << what;

    const JsonValue *bench = doc->find("bench");
    ASSERT_NE(bench, nullptr) << what << ": missing \"bench\"";
    ASSERT_TRUE(bench->isString()) << what;
    EXPECT_FALSE(bench->asString().empty()) << what;

    // When a results array is present it must hold objects.
    if (const JsonValue *results = doc->find("results")) {
        ASSERT_TRUE(results->isArray()) << what;
        for (const auto &row : results->items())
            EXPECT_TRUE(row.isObject()) << what;
    }
}

TEST(BenchSchema, WriterEmitsTheEnvelope)
{
    const std::string path = "BENCH_schema_selftest.json";
    trust::benchutil::writeBenchJson(
        path, "schema_selftest",
        [](trust::core::obs::JsonWriter &w) {
            w.kv("ops_per_config", 8);
            w.key("results");
            w.beginArray();
            w.beginObject();
            w.kv("threads", 1);
            w.kv("ops_per_sec", 123.456);
            w.endObject();
            w.endArray();
        });

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    in.close();
    std::remove(path.c_str());

    const std::string text = buf.str();
    expectBenchEnvelope(text, path);

    const auto doc = JsonValue::parse(text);
    ASSERT_TRUE(doc.has_value());
    // The envelope keys come first, in a fixed order.
    ASSERT_GE(doc->members().size(), 2u);
    EXPECT_EQ(doc->members()[0].first, "schema");
    EXPECT_EQ(doc->members()[1].first, "bench");
    EXPECT_EQ(doc->find("bench")->asString(), "schema_selftest");
}

TEST(BenchSchema, CommittedBenchFilesConform)
{
    // Benches drop BENCH_*.json wherever they run; anything that
    // lands at the repo root (and gets committed) must conform.
    const fs::path roots[] = {fs::path(TRUST_SOURCE_DIR),
                              fs::current_path()};
    int checked = 0;
    for (const auto &root : roots) {
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(root, ec)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("BENCH_", 0) != 0 ||
                entry.path().extension() != ".json")
                continue;
            std::ifstream in(entry.path(), std::ios::binary);
            ASSERT_TRUE(in.good()) << entry.path();
            std::ostringstream buf;
            buf << in.rdbuf();
            expectBenchEnvelope(buf.str(), entry.path().string());
            ++checked;
        }
    }
    // Nothing committed today is also a pass; the contract simply
    // holds for whatever shows up.
    SUCCEED() << checked << " BENCH_*.json files checked";
}

/** Mutable argv over owned strings, as main() receives it. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : storage(std::move(args))
    {
        for (auto &a : storage)
            ptrs.push_back(a.data());
        argc = static_cast<int>(ptrs.size());
    }

    std::vector<std::string> rest() const
    {
        return {ptrs.begin(), ptrs.begin() + argc};
    }

    std::vector<std::string> storage;
    std::vector<char *> ptrs;
    int argc = 0;
};

using trust::benchutil::parseFlags;

TEST(BenchFlags, KnownFlagsAreParsedAndRemoved)
{
    Argv args({"bench", "--devices=12", "--smoke", "--clicks=-4",
               "--trace-out=t.json"});
    int devices = 128;
    int clicks = 3;
    bool smoke = false;
    std::string traceOut;
    ASSERT_TRUE(parseFlags(args.argc, args.ptrs.data(),
                           {{"devices", devices, 1},
                            {"clicks", clicks, 0},
                            {"smoke", smoke},
                            {"trace-out", traceOut}}));
    EXPECT_EQ(devices, 12);
    EXPECT_EQ(clicks, 0); // raised to the flag's minimum
    EXPECT_TRUE(smoke);
    EXPECT_EQ(traceOut, "t.json");
    EXPECT_EQ(args.rest(), std::vector<std::string>{"bench"});
}

TEST(BenchFlags, UnknownFlagsStayForGoogleBenchmark)
{
    Argv args({"bench", "--benchmark_filter=BM_X", "--acounts=1000",
               "--devicesx=3", "--smoke=1", "devices=4"});
    int devices = 8;
    bool smoke = false;
    ASSERT_TRUE(parseFlags(args.argc, args.ptrs.data(),
                           {{"devices", devices, 1}, {"smoke", smoke}}));
    EXPECT_EQ(devices, 8);
    EXPECT_FALSE(smoke);
    EXPECT_EQ(args.rest(),
              (std::vector<std::string>{"bench", "--benchmark_filter=BM_X",
                                        "--acounts=1000", "--devicesx=3",
                                        "--smoke=1", "devices=4"}));
}

TEST(BenchFlags, MalformedIntegerIsRejected)
{
    for (const char *bad : {"--devices=abc", "--devices=", "--devices",
                            "--devices=12x", "--devices=1.5",
                            "--devices=99999999999", "--trace-out"}) {
        Argv args({"bench", bad});
        int devices = 8;
        std::string traceOut;
        EXPECT_FALSE(parseFlags(args.argc, args.ptrs.data(),
                                {{"devices", devices, 1},
                                 {"trace-out", traceOut}}))
            << bad;
    }
}

TEST(BenchLatency, SummaryOfAFixedSample)
{
    // 1..20 ms out of order, taken over 2 s of wall time.
    std::vector<double> ms;
    for (int i = 20; i >= 1; --i)
        ms.push_back(i);
    const auto s = trust::benchutil::summarizeLatencies(ms, 2.0);
    EXPECT_DOUBLE_EQ(s.opsPerSec, 10.0);
    EXPECT_DOUBLE_EQ(s.meanMs, 10.5);
    // Nearest rank over 20 sorted samples: index round(q * 19).
    EXPECT_DOUBLE_EQ(s.p50Ms, 11.0);
    EXPECT_DOUBLE_EQ(s.p95Ms, 19.0);
    EXPECT_DOUBLE_EQ(s.p99Ms, 20.0);
}

TEST(BenchLatency, EmptySampleSummarisesToZero)
{
    const auto s = trust::benchutil::summarizeLatencies({}, 1.0);
    EXPECT_EQ(s.opsPerSec, 0.0);
    EXPECT_EQ(s.meanMs, 0.0);
    EXPECT_EQ(s.p50Ms, 0.0);
    EXPECT_EQ(s.p95Ms, 0.0);
    EXPECT_EQ(s.p99Ms, 0.0);
}

} // namespace
