// Tests for the reflective config layer (src/config/): the value codec's
// unit-aware encode/decode, the generic ops (set/get/entries/print/diff/
// validate/apply_text), and the round-trip guarantee — every registered
// struct must print to text that reparses into an equal struct.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "config/config_ops.h"
#include "config/schema.h"
#include "harness/experiment.h"

namespace ceio {
namespace {

using config::decode_value;
using config::encode_value;

// ---------- Round-trip: every registered struct ----------

TEST(ConfigRoundTrip, EveryRegisteredStructReparsesEqual) {
  config::for_each_registered_config([](const char* name, auto def) {
    using T = decltype(def);
    const std::string text = config::print(def);
    ASSERT_FALSE(text.empty()) << name;
    T reparsed{};
    std::string error;
    ASSERT_TRUE(config::apply_text(reparsed, text, &error)) << name << ": " << error;
    EXPECT_EQ(config::entries(def), config::entries(reparsed)) << name;
    EXPECT_TRUE(config::diff_from_default(reparsed).empty()) << name;
  });
}

TEST(ConfigRoundTrip, EverySetterAcceptsItsOwnPrintedValue) {
  config::for_each_registered_config([](const char* name, auto def) {
    using T = decltype(def);
    T target{};
    for (const auto& [key, value] : config::entries(def)) {
      std::string error;
      EXPECT_TRUE(config::set(target, key, value, &error))
          << name << "." << key << " = " << value << ": " << error;
    }
  });
}

TEST(ConfigValidate, RegisteredDefaultsAreInRange) {
  config::for_each_registered_config([](const char* name, auto def) {
    std::vector<std::string> errors;
    EXPECT_TRUE(config::validate(def, &errors))
        << name << ": " << (errors.empty() ? "" : errors.front());
  });
}

TEST(ConfigSchema, RegistersEveryStruct) {
  const auto names = config::registered_struct_names();
  EXPECT_EQ(names.size(), 30u);
  EXPECT_EQ(names.front(), "LlcConfig");
  EXPECT_EQ(names.back(), "TestbedConfig");
}

// ---------- Value codec ----------

TEST(ValueCodec, NanosEncodeLargestExactUnit) {
  EXPECT_EQ(encode_value(Nanos{1500}), "1500ns");
  EXPECT_EQ(encode_value(Nanos{2000}), "2us");
  EXPECT_EQ(encode_value(millis(5)), "5ms");
  EXPECT_EQ(encode_value(seconds(1)), "1s");
}

TEST(ValueCodec, NanosDecodeUnitsAndFractions) {
  Nanos v{};
  std::string err;
  ASSERT_TRUE(decode_value("2us", &v, &err));
  EXPECT_EQ(v, Nanos{2000});
  ASSERT_TRUE(decode_value("2.5ms", &v, &err));
  EXPECT_EQ(v, Nanos{2'500'000});
  ASSERT_TRUE(decode_value("700", &v, &err));
  EXPECT_EQ(v, Nanos{700});
  EXPECT_FALSE(decode_value("fast", &v, &err));
}

TEST(ValueCodec, BytesEncodeDecode) {
  EXPECT_EQ(encode_value(Bytes{2048}), "2KiB");
  EXPECT_EQ(encode_value(Bytes{1000}), "1000B");
  EXPECT_EQ(encode_value(12 * kMiB), "12MiB");
  Bytes v{};
  std::string err;
  ASSERT_TRUE(decode_value("4k", &v, &err));
  EXPECT_EQ(v, Bytes{4096});
  ASSERT_TRUE(decode_value("1MiB", &v, &err));
  EXPECT_EQ(v, 1 * kMiB);
  ASSERT_TRUE(decode_value("512", &v, &err));
  EXPECT_EQ(v, Bytes{512});
}

TEST(ValueCodec, BitsPerSecRoundTrips) {
  EXPECT_EQ(encode_value(gbps(25.0)), "25Gbps");
  BitsPerSec v{};
  std::string err;
  ASSERT_TRUE(decode_value("25Gbps", &v, &err));
  EXPECT_EQ(v, gbps(25.0));
  ASSERT_TRUE(decode_value("1000000", &v, &err));
  EXPECT_EQ(v, BitsPerSec{1'000'000});
}

TEST(ValueCodec, BoolAliases) {
  bool v = false;
  std::string err;
  ASSERT_TRUE(decode_value("on", &v, &err));
  EXPECT_TRUE(v);
  ASSERT_TRUE(decode_value("off", &v, &err));
  EXPECT_FALSE(v);
  ASSERT_TRUE(decode_value("1", &v, &err));
  EXPECT_TRUE(v);
  EXPECT_FALSE(decode_value("maybe", &v, &err));
  EXPECT_NE(err.find("maybe"), std::string::npos);
}

TEST(ValueCodec, EnumsAreCaseInsensitiveWithCanonicalEncode) {
  SystemKind v = SystemKind::kCeio;
  std::string err;
  ASSERT_TRUE(decode_value("CEIO", &v, &err));
  EXPECT_EQ(v, SystemKind::kCeio);
  ASSERT_TRUE(decode_value("baseline", &v, &err));  // legacy alias
  EXPECT_EQ(v, SystemKind::kLegacy);
  EXPECT_EQ(encode_value(SystemKind::kLegacy), "legacy");
  EXPECT_FALSE(decode_value("turbo", &v, &err));
  EXPECT_NE(err.find("turbo"), std::string::npos);
}

TEST(ValueCodec, IntegerExtremesRoundTrip) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  std::int64_t i = 0;
  std::string err;
  ASSERT_TRUE(decode_value(encode_value(big), &i, &err));
  EXPECT_EQ(i, big);
  const std::uint64_t ubig = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t u = 0;
  ASSERT_TRUE(decode_value(encode_value(ubig), &u, &err));
  EXPECT_EQ(u, ubig);
}

// ---------- Generic ops over TestbedConfig ----------

TEST(ConfigOps, SetAndGetDottedPaths) {
  TestbedConfig tc;
  std::string err;
  ASSERT_TRUE(config::set(tc, "llc.ddio_ways", "4", &err)) << err;
  EXPECT_EQ(tc.llc.ddio_ways, 4);
  ASSERT_TRUE(config::set(tc, "system", "ceio", &err)) << err;
  EXPECT_EQ(tc.system, SystemKind::kCeio);
  std::string out;
  ASSERT_TRUE(config::get(tc, "llc.ddio_ways", &out, &err)) << err;
  EXPECT_EQ(out, "4");
}

TEST(ConfigOps, UnknownKeyIsAnError) {
  TestbedConfig tc;
  std::string err;
  EXPECT_FALSE(config::set(tc, "llc.bogus", "1", &err));
  EXPECT_EQ(err, "unknown key 'llc.bogus'");
  std::string out;
  EXPECT_FALSE(config::get(tc, "nosuch", &out, &err));
}

TEST(ConfigOps, BadValueNamesTheKey) {
  TestbedConfig tc;
  std::string err;
  EXPECT_FALSE(config::set(tc, "llc.ways", "plenty", &err));
  EXPECT_NE(err.find("llc.ways"), std::string::npos) << err;
}

TEST(ConfigOps, OutOfRangeIsRejectedWithBothBounds) {
  TestbedConfig tc;
  std::string err;
  EXPECT_FALSE(config::set(tc, "dram.access_latency", "2s", &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  EXPECT_EQ(tc.dram.access_latency, TestbedConfig{}.dram.access_latency);  // unchanged
}

TEST(ConfigOps, ValidateCatchesDirectMutation) {
  TestbedConfig tc;
  tc.llc.ways = 0;  // below the reflected range; set() would have refused
  std::vector<std::string> errors;
  EXPECT_FALSE(config::validate(tc, &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("llc.ways"), std::string::npos) << errors.front();
}

// At a rate of zero or below transmit_time() is 0 ns: a source paced at it
// would emit at `now` forever, and a link or memory of that bandwidth would
// move any load in no time. So every rate is ranged (and a range refuses
// NaN); DCTCP's additive increase may be zero but never negative.
TEST(ConfigValidate, SourceRatesMustBePositive) {
  TestbedConfig tc;
  std::string err;
  for (const char* key : {"dctcp.min_rate", "dctcp.max_rate", "net.rate", "pcie.bandwidth",
                          "dram.bandwidth", "nic_mem.bandwidth"}) {
    for (const char* value : {"0Gbps", "-1Gbps"}) {
      EXPECT_FALSE(config::set(tc, key, value, &err)) << key << " = " << value;
      EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    }
  }
  EXPECT_TRUE(config::set(tc, "dctcp.max_rate", "1Mbps", &err)) << err;
  EXPECT_FALSE(config::set(tc, "dctcp.g", "nan", &err));
  EXPECT_FALSE(config::set(tc, "dctcp.additive_increase", "-1Gbps", &err));
  EXPECT_TRUE(config::set(tc, "dctcp.additive_increase", "0Gbps", &err)) << err;

  std::vector<std::string> errors;
  FlowConfig flow;
  flow.offered_rate = BitsPerSec{0.0};
  EXPECT_FALSE(config::validate(flow, &errors));

  tenant::TenantSetConfig tenants;
  tenants.lc.offered_rate = BitsPerSec{0.0};
  tenants.bw.offered_rate = gbps(-1.0);
  tenants.ant.offered_rate = BitsPerSec{std::numeric_limits<double>::quiet_NaN()};
  errors.clear();
  EXPECT_FALSE(config::validate(tenants, &errors));
  EXPECT_EQ(errors.size(), 3u);

  harness::WorkloadSpec workload;
  workload.offered_rate = gbps(0.0);
  errors.clear();
  EXPECT_FALSE(config::validate(workload, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors.front().rfind("offered_rate = ", 0), 0u) << errors.front();
  workload.offered_rate = gbps(0.001);
  EXPECT_TRUE(config::validate(workload, &errors));
}

TEST(ConfigOps, DiffFromDefaultListsOnlyChangedKeys) {
  TestbedConfig tc;
  std::string err;
  ASSERT_TRUE(config::set(tc, "llc.ddio_ways", "4", &err));
  ASSERT_TRUE(config::set(tc, "system", "shring", &err));
  const auto diff = config::diff_from_default(tc);
  ASSERT_EQ(diff.size(), 2u);
  // Entries come back in schema field order: `system` precedes the nested
  // llc section in visit_fields(TestbedConfig).
  EXPECT_EQ(diff[0].first, "system");
  EXPECT_EQ(diff[0].second, "shring");
  EXPECT_EQ(diff[1].first, "llc.ddio_ways");
  EXPECT_EQ(diff[1].second, "4");
}

TEST(ConfigOps, ListKeysCoversNestedSections) {
  const auto keys = config::list_keys(TestbedConfig{});
  auto has = [&](const char* k) {
    for (const auto& key : keys) {
      if (key == k) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("llc.ddio_ways"));
  EXPECT_TRUE(has("ceio.total_credits"));
  EXPECT_TRUE(has("seed"));
  EXPECT_TRUE(has("net.rate"));
}

TEST(ConfigOps, ApplyTextSkipsCommentsAndReportsLineNumbers) {
  TestbedConfig tc;
  std::string err;
  ASSERT_TRUE(config::apply_text(tc,
                                 "# scenario fragment\n"
                                 "llc.ddio_ways = 4\n"
                                 "\n"
                                 "system = shring  # inline comment\n",
                                 &err))
      << err;
  EXPECT_EQ(tc.llc.ddio_ways, 4);
  EXPECT_EQ(tc.system, SystemKind::kShring);

  EXPECT_FALSE(config::apply_text(tc, "llc.ddio_ways = 4\nnot a key value pair\n", &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  EXPECT_FALSE(config::apply_text(tc, "llc.bogus = 1\n", &err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

}  // namespace
}  // namespace ceio
