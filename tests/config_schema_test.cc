// The knob table (runtime/config_schema.h) is the only declaration of the
// command-line surface, so these tests walk it generically: every entry must
// round-trip a legal value, reject out-of-range and malformed ones, and
// appear in --help exactly once. Inputs are derived from each knob's declared
// syntax, so a new knob of an existing kind needs no edit here.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/config_schema.h"
#include "runtime/fuzz.h"
#include "tests/result_equality.h"

namespace hotstuff1 {
namespace {

struct Cases {
  std::vector<std::string> legal;    // canonical: format(parse(x)) == x
  std::vector<std::string> illegal;  // out of range, unknown, or malformed
};

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(s);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

Cases CasesFor(const Knob& k) {
  const std::string& s = k.syntax;
  const std::vector<std::string> junk = {"+5", " 5", "5 ", "abc", "-1"};
  Cases c;
  if (k.name == "strategy") {
    c = {{"0-3:withhold;gst=120000", "0-:equivocate", "1-3:partition=0-3|4-7", "0-:slow",
          "0-:tailfork;1-3:withhold", "0-:crash"},
         {"5-3:withhold", "0:jam", "0:delay=+5", "0:delay=99999999999999999999", "2-:crash",
          "0:outage=0-9000000000"}};
  } else if (k.name == "reconfig") {
    c = {{"0:0-15;4:0-11", "0:0-3+8-19"}, {"0:0-2", "4:0-7", "0:0-7;0:0-7", "0:+0-7"}};
  } else if (s == "auto|<us>") {
    c = {{"auto", "250"}, {"fast", "99999999999999999999", "off", "0"}};
  } else if (s == "<name>") {
    c = {{"fig8_scalability"}, {""}};
  } else if (s.empty()) {
    c = {{"true", "false"}, {"maybe", "yes", "2", "TRUE"}};
  } else if (s == "<N>") {
    c = {{"0", "7", "18446744073709551615"}, {"18446744073709551616", "1e3"}};
  } else if (s == "<ms>" || s == "<ms, > 0>") {
    c = {{"0.001", "0.4", "1200", "1000000000"}, {"1000000000.001", "1e3", ".5", "5.", "1,5"}};
    if (s == "<ms>") {
      c.legal.push_back("0");
    } else {
      c.illegal.insert(c.illegal.end(), {"0", "0.0005"});
    }
  } else if (s == "<decimal>") {
    c = {{"0.001", "0.5", "50000", "1000000000000"},
         {"0", "1000000000001", "1e5", ".5", "5.", "inf", "nan"}};
  } else if (s.size() > 2 && s.front() == '<' && s.find("..") != std::string::npos) {
    const uint64_t lo = std::stoull(s.substr(1));
    const uint64_t hi = std::stoull(s.substr(s.find("..") + 2));
    c = {{std::to_string(lo), std::to_string(hi)}, {std::to_string(hi + 1)}};
    if (lo > 0) c.illegal.push_back(std::to_string(lo - 1));
  } else if (s.find('|') != std::string::npos) {
    c = {Split(s, '|'), {"bogus", Split(s, '|').front() + "x", ""}};
  } else {
    ADD_FAILURE() << "no test rule for --" << k.name << "=" << s;
  }
  if (s != "<name>" && k.name != "strategy" && k.name != "reconfig") {
    c.illegal.insert(c.illegal.end(), junk.begin(), junk.end());
  }
  return c;
}

TEST(KnobTableTest, EveryKnobRoundTripsAndRejectsBadValues) {
  std::map<std::string, int> seen;
  for (const Knob& k : Knobs()) {
    SCOPED_TRACE("--" + k.name);
    EXPECT_EQ(++seen[k.name], 1) << "declared twice";
    ASSERT_NE(k.set == nullptr, k.set_run == nullptr) << "exactly one root";
    ASSERT_EQ(IsRunScope(k.scope), k.set == nullptr);
    const Cases cases = CasesFor(k);
    ASSERT_FALSE(cases.legal.empty());
    for (const std::string& v : cases.legal) {
      ExperimentConfig cfg;
      CommandLine cl;
      std::string why;
      if (k.set) {
        ASSERT_TRUE(k.set(v, cfg, &why)) << v << ": " << why;
        EXPECT_EQ(k.get(cfg), v);
      } else {
        ASSERT_TRUE(k.set_run(v, cl, &why)) << v << ": " << why;
        EXPECT_EQ(k.get_run(cl), v);
      }
    }
    for (const std::string& v : cases.illegal) {
      ExperimentConfig cfg;
      CommandLine cl;
      EXPECT_FALSE(k.set ? k.set(v, cfg, nullptr) : k.set_run(v, cl, nullptr))
          << "accepted '" << v << "'";
    }
  }
}

TEST(KnobTableTest, CertSchemeAliasesParse) {
  // "multisig" and "bls" are older spellings of vector and aggregate: they
  // still parse, and repros write the canonical names.
  const Knob& k = *FindKnob("cert-scheme");
  ExperimentConfig cfg;
  ASSERT_TRUE(k.set("multisig", cfg, nullptr));
  EXPECT_EQ(cfg.cert_scheme, CertScheme::kMultisigVector);
  ASSERT_TRUE(k.set("bls", cfg, nullptr));
  EXPECT_EQ(cfg.cert_scheme, CertScheme::kAggregate);
  EXPECT_EQ(k.get(cfg), "aggregate");
  EXPECT_FALSE(k.set("ecdsa", cfg, nullptr));
  EXPECT_FALSE(k.set("", cfg, nullptr));
}

TEST(KnobTableTest, HelpListsEveryKnobExactlyOnce) {
  std::map<std::string, int> listed;
  std::istringstream help(HelpText("intro\n"));
  for (std::string line; std::getline(help, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    listed[line.substr(4, line.find_first_of("= ", 4) - 4)]++;
  }
  EXPECT_EQ(listed.size(), Knobs().size());
  for (const Knob& k : Knobs()) EXPECT_EQ(listed[k.name], 1) << "--" << k.name;
}

CommandLine Parse(const std::vector<std::string>& args, std::string* error) {
  std::vector<const char*> argv = {"hs1sim"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  CommandLine cl;
  error->clear();
  const bool ok = ParseCommandLine(static_cast<int>(argv.size()), argv.data(), &cl, error);
  EXPECT_EQ(ok, error->empty()) << *error;
  return cl;
}

TEST(CommandLineTest, ErrorsNameTheFlag) {
  for (const char* bad : {"--protocl=slotted", "--n=600", "--fault=crsh",
                          "--lookahead=+5", "--oracle=junk", "--sim_jobs=2",
                          "--repeat=3", "--bench-json=x.json"}) {
    std::string error;
    Parse({bad}, &error);
    const std::string flag = std::string(bad).substr(0, std::string(bad).find('='));
    EXPECT_NE(error.find(flag), std::string::npos) << bad << " -> " << error;
  }
}

TEST(CommandLineTest, PostParseStepIgnoresFlagOrder) {
  std::string error;
  CommandLine a = Parse({"--regions=3", "--n=16"}, &error);
  CommandLine b = Parse({"--n=16", "--regions=3"}, &error);
  ASSERT_TRUE(ResolveSinglePoint(&a, &error)) << error;
  ASSERT_TRUE(ResolveSinglePoint(&b, &error)) << error;
  EXPECT_EQ(DescribeConfig(a.config), DescribeConfig(b.config));
  EXPECT_EQ(a.config.view_timer, Millis(1200));  // geo defaults...
  EXPECT_EQ(a.config.delta, Millis(160));
  EXPECT_EQ(a.config.rollback_victims, 5u);  // ...and f of the final n

  CommandLine given = Parse({"--timer_ms=50", "--regions=3", "--victims=2"}, &error);
  ASSERT_TRUE(ResolveSinglePoint(&given, &error)) << error;
  EXPECT_EQ(given.config.view_timer, Millis(50));  // given flags win
  EXPECT_EQ(given.config.delta, Millis(160));
  EXPECT_EQ(given.config.rollback_victims, 2u);

  CommandLine over = Parse({"--faulty=40"}, &error);
  EXPECT_FALSE(ResolveSinglePoint(&over, &error));
  EXPECT_NE(error.find("--faulty=40"), std::string::npos) << error;
  CommandLine outside = Parse({"--n=8", "--reconfig=0:0-15"}, &error);
  EXPECT_FALSE(ResolveSinglePoint(&outside, &error));
  EXPECT_NE(error.find("--reconfig"), std::string::npos) << error;
}

TEST(CommandLineTest, StrategyMustFitTheRun) {
  // A partition naming replicas past --n, or an outage of a region the
  // topology lacks, used to parse and then change nothing at all.
  std::string error;
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--n=16", "--strategy=0-3:partition=0-7|40-50"},
        std::vector<std::string>{"--n=16", "--strategy=0-3:outage=4"},
        std::vector<std::string>{"--n=16", "--regions=3", "--strategy=0:outage=3"}}) {
    CommandLine cl = Parse(args, &error);
    EXPECT_FALSE(ResolveSinglePoint(&cl, &error)) << args.back();
    EXPECT_NE(error.find("--strategy"), std::string::npos) << error;
  }
  CommandLine fits = Parse({"--n=16", "--regions=3", "--strategy=0:outage=2;"
                            "1:partition=0-7|8-15"}, &error);
  EXPECT_TRUE(ResolveSinglePoint(&fits, &error)) << error;
}

// Parses a DescribeConfig line back through the real command-line parser
// (single quotes are the shell quoting DescribeConfig adds).
ExperimentConfig Reparse(const std::string& repro) {
  std::vector<std::string> args;
  for (std::string token : Split(repro, ' ')) {
    std::erase(token, '\'');
    args.push_back(token);
  }
  std::string error;
  return Parse(args, &error).config;
}

void ExpectSameConfig(const ExperimentConfig& a, const ExperimentConfig& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.topology.n, b.topology.n);
  EXPECT_EQ(a.client_region, b.client_region);
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.warmup, b.warmup);
  EXPECT_EQ(a.view_timer, b.view_timer);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_EQ(a.max_slots, b.max_slots);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.num_clients, b.num_clients);
  EXPECT_EQ(a.client_groups, b.client_groups);
  EXPECT_EQ(a.arrival.kind, b.arrival.kind);
  EXPECT_EQ(a.arrival.offered_load_tps, b.arrival.offered_load_tps);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.num_faulty, b.num_faulty);
  EXPECT_EQ(a.rollback_victims, b.rollback_victims);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.reconfig, b.reconfig);
  EXPECT_EQ(a.liveness_k, b.liveness_k);
  EXPECT_EQ(a.liveness_grace, b.liveness_grace);
  EXPECT_EQ(a.inject_delay, b.inject_delay);
  EXPECT_EQ(a.num_impaired, b.num_impaired);
  EXPECT_EQ(a.speculation_enabled, b.speculation_enabled);
  EXPECT_EQ(a.trusted_leader_enabled, b.trusted_leader_enabled);
  EXPECT_EQ(a.track_accepted, b.track_accepted);
  EXPECT_EQ(a.cert_scheme, b.cert_scheme);
  EXPECT_EQ(a.bandwidth_bytes_per_us, b.bandwidth_bytes_per_us);
  EXPECT_EQ(a.event_cap, b.event_cap);
  EXPECT_EQ(a.oracle_enabled, b.oracle_enabled);
  EXPECT_EQ(a.test_break_safety, b.test_break_safety);
  EXPECT_EQ(a.test_break_liveness, b.test_break_liveness);
  EXPECT_EQ(a.test_break_reconfig, b.test_break_reconfig);
}

TEST(DescribeConfigTest, FuzzConfigsRoundTripThroughTheCommandLine) {
  for (uint64_t seed = 0; seed < 44; ++seed) {
    const ExperimentConfig original = FuzzConfigFromSeed(seed);
    const std::string repro = DescribeConfig(original);
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) + ": " + repro);
    ExperimentConfig parsed = Reparse(repro);
    ExpectSameConfig(parsed, original);
    // The executor shape stays out of repros by design.
    EXPECT_EQ(repro.find("sim-jobs"), std::string::npos);
    EXPECT_EQ(repro.find("lookahead"), std::string::npos);
    if (seed < 3) ExpectSameResult(RunExperiment(parsed), RunExperiment(original));
  }
}

TEST(DescribeConfigTest, QuotesScheduleValuesForTheShell) {
  ExperimentConfig cfg;
  std::string why;
  ASSERT_TRUE(FindKnob("strategy")->set("0-3:partition=0-7|8-15", cfg, &why)) << why;
  const std::string repro = DescribeConfig(cfg);
  EXPECT_NE(repro.find("--strategy='0-3:partition=0-7|8-15'"), std::string::npos)
      << repro;
  EXPECT_NE(repro.find("--protocol=hotstuff1 --n=32 "), std::string::npos) << repro;
}

}  // namespace
}  // namespace hotstuff1
