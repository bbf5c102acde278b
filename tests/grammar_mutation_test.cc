// Deterministic mutation corpus for the text grammars (--strategy,
// --reconfig, --lookahead), no external fuzzer needed. From a fixed seed,
// valid examples are mutated byte by byte (delete, insert from the
// grammar's own alphabet plus digits, replace, duplicate a segment,
// lengthen a number). Every mutant must either be rejected — with a
// message, for the two schedule grammars — or parse and come back
// unchanged through Format -> Parse. Whatever parses must also stay within
// the id bounds, so a mutant that lengthens a range's upper bound
// ("0-7" -> "0-7777777") is rejected before the range expands. Sized to
// run well under a second, so the sanitizer builds cover it too.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/replica_set.h"
#include "consensus/committee.h"
#include "runtime/adversary.h"
#include "runtime/experiment.h"

namespace hotstuff1 {
namespace {

constexpr int kMutantsPerGrammar = 4000;

std::string Mutate(const std::string& text, const std::string& alphabet, Rng& rng) {
  std::string s = text;
  const auto pick = [&] { return alphabet[rng.NextBounded(alphabet.size())]; };
  const int edits = 1 + static_cast<int>(rng.NextBounded(3));
  for (int e = 0; e < edits; ++e) {
    const size_t at = rng.NextBounded(s.size() + 1);
    switch (rng.NextBounded(5)) {
      case 0:  // delete 1..3 bytes
        if (at < s.size()) s.erase(at, 1 + rng.NextBounded(3));
        break;
      case 1:  // insert
        s.insert(at, 1, pick());
        break;
      case 2:  // replace
        if (at < s.size()) s[at] = pick();
        break;
      case 3: {  // duplicate a segment of up to 12 bytes in place
        if (at >= s.size()) break;
        const std::string seg = s.substr(at, 1 + rng.NextBounded(12));
        s.insert(at, seg);
        break;
      }
      default: {  // lengthen a number by up to 6 digits
        if (at >= s.size() || s[at] < '0' || s[at] > '9') break;
        for (uint64_t d = 1 + rng.NextBounded(6); d > 0; --d) {
          s.insert(at, 1, static_cast<char>('0' + rng.NextBounded(10)));
        }
        break;
      }
    }
  }
  return s;
}

// One grammar under test. `check` returns false on rejection (filling
// `error` when the grammar reports one); on acceptance it formats the value
// and reports whether reparsing that text gives the value back.
struct Grammar {
  std::vector<std::string> valid;
  std::string alphabet;  // the grammar's own punctuation and words
  bool rejection_names_a_reason = true;
  std::function<bool(const std::string&, std::string* error, std::string* formatted,
                     bool* round_trips)>
      check;
};

void RunCorpus(const Grammar& g, uint64_t seed) {
  const std::string alphabet = g.alphabet + "0123456789";
  Rng rng(seed);
  int accepted = 0, rejected = 0;
  for (const std::string& text : g.valid) {
    std::string error, formatted;
    bool round_trips = false;
    ASSERT_TRUE(g.check(text, &error, &formatted, &round_trips)) << text << ": " << error;
    EXPECT_TRUE(round_trips) << text << " -> " << formatted;
  }
  for (int i = 0; i < kMutantsPerGrammar; ++i) {
    const std::string& base = g.valid[rng.NextBounded(g.valid.size())];
    const std::string mutant = Mutate(base, alphabet, rng);
    std::string error, formatted;
    bool round_trips = false;
    if (g.check(mutant, &error, &formatted, &round_trips)) {
      ++accepted;
      EXPECT_TRUE(round_trips) << "'" << mutant << "' formats as '" << formatted
                               << "', which parses to something else";
    } else {
      ++rejected;
      if (g.rejection_names_a_reason) {
        EXPECT_FALSE(error.empty()) << "'" << mutant << "' rejected without a reason";
      }
    }
  }
  // The corpus must exercise both outcomes, or it proves nothing.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Format -> Parse check shared by the two schedule grammars; `bounded`
// holds whenever every parsed id is within the grammar's documented cap.
template <typename T>
Grammar ScheduleGrammar(std::vector<std::string> valid, std::string alphabet,
                        bool (*parse)(const std::string&, T*, std::string*),
                        std::string (*format)(const T&), bool (*bounded)(const T&)) {
  Grammar g;
  g.valid = std::move(valid);
  g.alphabet = std::move(alphabet);
  g.check = [parse, format, bounded](const std::string& text, std::string* error,
                                     std::string* formatted, bool* round_trips) {
    T value;
    if (!parse(text, &value, error)) return false;
    EXPECT_TRUE(bounded(value)) << "'" << text << "' parsed past the id bounds";
    *formatted = format(value);
    T again;
    std::string why;
    *round_trips = parse(*formatted, &again, &why) && again == value;
    return true;
  };
  return g;
}

bool StrategyBounded(const StrategySchedule& s) {
  for (const StrategyEntry& e : s.entries) {
    for (const std::vector<uint32_t>& group : e.partition) {
      for (const uint32_t id : group) {
        if (id >= ReplicaSet::kCapacity) return false;
      }
    }
    for (const uint32_t region : e.outage_regions) {
      if (region > 4) return false;
    }
  }
  return true;
}

bool CommitteeBounded(const CommitteeSchedule& s) {
  return s.empty() || s.MaxMember() < ReplicaSet::kCapacity;
}

TEST(GrammarMutationTest, StrategySchedules) {
  RunCorpus(ScheduleGrammar<StrategySchedule>(
                {"0-:withhold", "0-:slow", "0-:tailfork", "0-:crash", "0-:equivocate",
                 "0-:tailfork;1-3:withhold", "1-3:delay=5000,target-leader;gst=90000",
                 "0-3:partition=0-7|8-15;epoch=20000", "2:outage=0+2,jitter=50",
                 "0:equivocate;2-4:withhold,slow;epoch=30000",
                 "0-:crash;1-2:partition=0-3+9|4-7"},
                ":;-,=|+epochgstwithholddelayequivocateslowtailforkcrashtarget-leader"
                "partitionoutagejitter",
                ParseStrategySchedule, FormatStrategySchedule, StrategyBounded),
            /*seed=*/0x5eed5);
}

TEST(GrammarMutationTest, CommitteeSchedules) {
  RunCorpus(ScheduleGrammar<CommitteeSchedule>(
                {"0:0-15", "0:0-15;4:0-11", "0:0-15;4:0-11;8:0-3+8-19", "0:0-3+8-19",
                 "0:0+2+4+6;3:1-4"},
                ":;-+", ParseCommitteeSchedule, FormatCommitteeSchedule,
                CommitteeBounded),
            /*seed=*/0xc0117);
}

TEST(GrammarMutationTest, LookaheadWindows) {
  Grammar g;
  g.valid = {"auto", "250", "1"};
  g.alphabet = "autoff+- ";
  g.rejection_names_a_reason = false;  // ParseLookahead reports no message
  g.check = [](const std::string& text, std::string*, std::string* formatted,
               bool* round_trips) {
    LookaheadSpec value;
    if (!ParseLookahead(text, &value)) return false;
    *formatted = FormatLookahead(value);
    LookaheadSpec again;
    *round_trips = ParseLookahead(*formatted, &again) && again == value;
    return true;
  };
  RunCorpus(g, /*seed=*/0x10ca4);
}

}  // namespace
}  // namespace hotstuff1
