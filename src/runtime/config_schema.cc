#include "runtime/config_schema.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/parse.h"
#include "common/replica_set.h"
#include "runtime/adversary.h"

namespace hotstuff1 {
namespace {

// --- value codecs -------------------------------------------------------------

/// How one value type reads and writes as text. `parse` is strict and range
/// checked; `format` is its exact inverse on every legal value.
template <typename T>
struct Codec {
  std::string syntax;
  std::function<bool(const std::string&, T*, std::string* why)> parse;
  std::function<std::string(const T&)> format;
};

Codec<uint64_t> Uint(uint64_t lo, uint64_t hi) {
  return {hi == std::numeric_limits<uint64_t>::max()
              ? "<N>"
              : "<" + std::to_string(lo) + ".." + std::to_string(hi) + ">",
          [lo, hi](const std::string& s, uint64_t* v, std::string*) {
            return ParseUint(s, hi, v) && *v >= lo;
          },
          [](const uint64_t& v) { return std::to_string(v); }};
}

// Plain decimals ("50000", "0.4"): no sign, exponent or whitespace.
Codec<double> Decimal(const char* syntax, double lo, double hi) {
  return {syntax,
          [lo, hi](const std::string& s, double* v, std::string*) {
            const size_t dot = s.find('.');
            uint64_t digits = 0;
            if (!ParseUint(s.substr(0, dot), UINT64_MAX, &digits) ||
                (dot != std::string::npos &&
                 !ParseUint(s.substr(dot + 1), UINT64_MAX, &digits))) {
              return false;
            }
            *v = std::strtod(s.c_str(), nullptr);
            return *v >= lo && *v <= hi;
          },
          [](const double& v) {
            char buf[32];  // the shortest precision that reads back exactly
            for (int precision = 15; precision <= 17; ++precision) {
              std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
              if (std::strtod(buf, nullptr) == v) break;
            }
            return std::string(buf);
          }};
}

// Milliseconds of virtual time, held in microseconds.
Codec<SimTime> Ms(double lo) {
  const Codec<double> ms = Decimal(lo > 0 ? "<ms, > 0>" : "<ms>", lo, 1e9);
  return {ms.syntax,
          [ms](const std::string& s, SimTime* v, std::string* why) {
            double d = 0;
            if (!ms.parse(s, &d, why)) return false;
            *v = std::llround(d * kMillisecond);
            return true;
          },
          [ms](const SimTime& v) { return ms.format(ToMillis(v)); }};
}

// A bare `--flag` means true; `negated` serves the `--no_x` spellings of
// fields that default on.
Codec<bool> Switch(bool negated = false) {
  return {"",
          [negated](const std::string& s, bool* v, std::string*) {
            const bool on = s.empty() || s == "true" || s == "1";
            if (!on && s != "false" && s != "0") return false;
            *v = on != negated;
            return true;
          },
          [negated](const bool& v) { return v != negated ? "true" : "false"; }};
}

// names[i] spells E(i).
template <typename E>
Codec<E> Enum(std::vector<std::string> names) {
  std::string syntax;
  for (const std::string& name : names) syntax += (syntax.empty() ? "" : "|") + name;
  return {syntax,
          [names](const std::string& s, E* v, std::string*) {
            const auto it = std::find(names.begin(), names.end(), s);
            if (it == names.end()) return false;
            *v = static_cast<E>(it - names.begin());
            return true;
          },
          [names](const E& v) { return names.at(static_cast<size_t>(v)); }};
}

template <typename E>
Codec<E> Enum(const char* (*name)(E), int count) {
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) names.push_back(name(static_cast<E>(i)));
  return Enum<E>(std::move(names));
}

// Older spellings that still parse; `format` writes the canonical name.
template <typename E>
Codec<E> WithAliases(Codec<E> codec, std::vector<std::pair<std::string, E>> aliases) {
  codec.parse = [parse = codec.parse, aliases](const std::string& s, E* v, std::string* why) {
    for (const auto& [alias, value] : aliases) {
      if (s != alias) continue;
      *v = value;
      return true;
    }
    return parse(s, v, why);
  };
  return codec;
}

// --- the table -------------------------------------------------------------------

// Binds a codec to the field `root.member`, where root is the ExperimentConfig
// (config and executor knobs) or the CommandLine (run-only options).
template <KnobScope kScope, typename T, typename Field>
Knob Bind(const char* name, Codec<T> codec, Field field, const char* help) {
  using Root = std::conditional_t<IsRunScope(kScope), CommandLine, ExperimentConfig>;
  Knob knob{name, codec.syntax, help, kScope, {}, {}, {}, {}};
  auto set = [codec, field](const std::string& text, Root& root, std::string* why) {
    T value{};
    if (!codec.parse(text, &value, why)) return false;
    auto& dst = field(root);
    dst = static_cast<std::remove_reference_t<decltype(dst)>>(value);
    return true;
  };
  auto get = [codec, field](const Root& root) {
    return codec.format(static_cast<T>(field(root)));
  };
  if constexpr (IsRunScope(kScope)) {
    knob.set_run = set;
    knob.get_run = get;
  } else {
    knob.set = set;
    knob.get = get;
  }
  return knob;
}

#define KNOB(scope, name, codec, member, help)                                      \
  Bind<KnobScope::scope>(name, codec, [](auto& root) -> auto& { return root.member; }, \
                         help)

std::vector<Knob> MakeKnobs() {
  constexpr uint64_t kReplicas = ReplicaSet::kCapacity;
  constexpr uint64_t kAny = UINT64_MAX;
  const Codec<StrategySchedule> strategy{"<schedule>", ParseStrategySchedule,
                                         FormatStrategySchedule};
  const Codec<CommitteeSchedule> committee{"<schedule>", ParseCommitteeSchedule,
                                           FormatCommitteeSchedule};
  const Codec<LookaheadSpec> lookahead{
      "auto|<us>",
      [](const std::string& s, LookaheadSpec* v, std::string*) { return ParseLookahead(s, v); },
      FormatLookahead};
  const Codec<std::string> name{
      "<name>",
      [](const std::string& s, std::string* v, std::string*) { return !(*v = s).empty(); },
      [](const std::string& v) { return v; }};
  return {
      KNOB(kConfig, "protocol",
           Enum<ProtocolKind>({"hotstuff", "hotstuff2", "basic", "hotstuff1", "slotted"}),
           protocol, "consensus core (default hotstuff1)"),
      KNOB(kConfig, "n", Uint(4, kReplicas), n, "replicas (default 32)"),
      KNOB(kConfig, "batch", Uint(1, 100'000), batch_size,
           "transactions per block (default 100)"),
      KNOB(kConfig, "duration_ms", Ms(0.001), duration, "measured virtual time (default 2000)"),
      KNOB(kConfig, "warmup_ms", Ms(0), warmup, "virtual time before measuring (default 300)"),
      KNOB(kConfig, "timer_ms", Ms(0.001), view_timer,
           "view timer (default 10; 1200 if --regions > 1)"),
      KNOB(kConfig, "delta_ms", Ms(0), delta, "delay bound (default 1; 160 if --regions > 1)"),
      KNOB(kConfig, "max_slots", Uint(0, 1'000'000), max_slots,
           "slotted: slots per view, 0 = adaptive (default)"),
      KNOB(kConfig, "workload", Enum<WorkloadKind>({"ycsb", "tpcc"}), workload,
           "transaction mix (default ycsb)"),
      KNOB(kConfig, "regions", Uint(1, 5), regions,
           "geo deployment over k paper regions (default 1)"),
      KNOB(kConfig, "clients", Uint(0, 100'000'000), num_clients,
           "clients (default 0 = 8*batch closed, 1M open loop)"),
      KNOB(kConfig, "client-groups", Uint(1, kMaxClientGroups), client_groups,
           "client-pool shards (default 1)"),
      KNOB(kConfig, "arrival", Enum(ArrivalKindName, 5), arrival.kind,
           "traffic model (default closed loop)"),
      KNOB(kConfig, "offered-load", Decimal("<decimal>", 0.001, 1e12),
           arrival.offered_load_tps, "open-loop arrivals, txn/s (default 50000)"),
      KNOB(kConfig, "faulty", Uint(0, kReplicas - 1), num_faulty,
           "coalition size: replicas 1..k (default 0)"),
      KNOB(kConfig, "victims", Uint(0, kReplicas), rollback_victims,
           "rollback victims, clamped to f (default f)"),
      KNOB(kConfig, "strategy", strategy, strategy,
           "what the --faulty coalition does per epoch:\n"
           "0-:slow (D6), 0-:tailfork (D7), 0-:equivocate\n"
           "(rollback), 0-:crash, or e.g. \"0-3:withhold;\n"
           "gst=120000\" (grammar: runtime/adversary.h)"),
      KNOB(kConfig, "reconfig", committee, reconfig,
           "committee schedule, e.g. \"0:0-15;4:0-11\"\n"
           "(grammar: consensus/committee.h)"),
      KNOB(kConfig, "inject_delay_ms", Ms(0), inject_delay,
           "Fig. 9: extra delay on --impaired traffic"),
      KNOB(kConfig, "impaired", Uint(0, kReplicas), num_impaired,
           "Fig. 9: number of delayed replicas (default 0)"),
      KNOB(kConfig, "no_speculation", Switch(true), speculation_enabled,
           "disable speculative responses"),
      KNOB(kConfig, "no_trusted_leader", Switch(true), trusted_leader_enabled,
           "disable the §6.3 fast path"),
      KNOB(kConfig, "cert-scheme",
           WithAliases(Enum(CertSchemeName, 3), {{"multisig", CertScheme::kMultisigVector},
                                                 {"bls", CertScheme::kAggregate}}),
           cert_scheme, "authenticator wire encoding (default vector)"),
      KNOB(kConfig, "bandwidth_bytes_per_us", Decimal("<decimal>", 0.001, 1e12),
           bandwidth_bytes_per_us, "per-node egress, bytes/us (default 2000)"),
      KNOB(kConfig, "seed", Uint(0, kAny), seed, "simulation seed (default 1)"),
      KNOB(kConfig, "event_cap", Uint(0, kAny), event_cap,
           "stop after N events, reported (default 0 = none)"),
      KNOB(kConfig, "oracle", Switch(), oracle_enabled,
           "arm the online safety and liveness oracles"),
      KNOB(kConfig, "liveness_k", Uint(0, kAny), liveness_k,
           "liveness: views past GST with no commit (0 = auto)"),
      KNOB(kConfig, "liveness_grace_ms", Ms(0), liveness_grace,
           "liveness: silence after GST that fails (0 = auto)"),
      KNOB(kExecutor, "sim-jobs", Uint(1, kReplicas), sim_jobs,
           "event-loop threads inside each point (default 1,\n"
           "the serial loop; capped runs always use it)"),
      KNOB(kExecutor, "lookahead", lookahead, lookahead,
           "parallel window: auto = the topology's safe\n"
           "horizon, <us> caps it (default auto)"),
      KNOB(kPointRun, "paper_point", Switch(), paper_point,
           "saturated throughput + light-load latency"),
      KNOB(kRun, "scenario", name, scenario, "run a registered scenario (or name it)"),
      KNOB(kRun, "all", Switch(), all, "run every registered scenario"),
      KNOB(kRun, "list", Switch(), list, "list registered scenarios with their axes"),
      KNOB(kScenarioRun, "jobs", Uint(1, 1024), run.jobs,
           "scenario points run in parallel (default: cores)"),
      KNOB(kScenarioRun, "format", Enum<ReportFormat>({"table", "csv", "json"}), run.format,
           "scenario output format (default table)"),
      KNOB(kScenarioRun, "smoke", Switch(), run.smoke, "CI-sized scenario points"),
      KNOB(kRun, "help", Switch(), help, "this text"),
  };
}

#undef KNOB

// --- helpers -------------------------------------------------------------------

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

// Single-quotes a value the shell would split or expand (';' and '|' in
// schedules), so a repro string pastes as is.
std::string ShellQuote(const std::string& v) {
  const bool plain = !v.empty() && std::all_of(v.begin(), v.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) ||
           std::strchr("_-.,:=+/@%", c) != nullptr;
  });
  return plain ? v : "'" + v + "'";
}

}  // namespace

const std::vector<Knob>& Knobs() {
  static const std::vector<Knob> table = MakeKnobs();
  return table;
}

const Knob* FindKnob(std::string_view name) {
  for (const Knob& k : Knobs()) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

bool ParseCommandLine(int argc, const char* const* argv, CommandLine* out,
                      std::string* error) {
  const unsigned hw = std::thread::hardware_concurrency();
  out->run.jobs = hw > 0 ? static_cast<int>(hw) : 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out->positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const Knob* knob = FindKnob(name);
    if (knob == nullptr) return Fail(error, "unknown flag --" + name);
    std::string why;
    if (!(knob->set ? knob->set(value, out->config, &why)
                    : knob->set_run(value, *out, &why))) {
      return Fail(error, "bad --" + name + "=" + value + " (want " +
                             (knob->syntax.empty() ? "true|false" : knob->syntax) +
                             (why.empty() ? "" : ": " + why) + ")");
    }
    if (knob->set) {
      out->run.overrides.push_back({name, value});
    } else {
      out->run_flags.push_back(knob);
    }
  }
  return true;
}

std::string CheckConfig(const ExperimentConfig& c) {
  const std::string n = std::to_string(c.n);
  if (c.num_faulty >= c.n) {
    return "--faulty=" + std::to_string(c.num_faulty) + " must be below --n=" + n;
  }
  if (c.reconfig.MaxMember() >= c.n) {
    return "--reconfig names replica " + std::to_string(c.reconfig.MaxMember()) +
           ", outside --n=" + n;
  }
  if (c.topology.n != 0 && (c.topology.n != c.n || c.regions > 1)) {
    return "--n=" + n + " --regions=" + std::to_string(c.regions) +
           " do not fit the scenario's own " + std::to_string(c.topology.n) +
           "-node topology";
  }
  // Each closed-loop client keeps one transaction in flight, and clients are
  // striped over the groups, so a group needs ceil(clients / groups) slots.
  const uint64_t slots = uint64_t{c.client_groups} * kMaxSlotsPerGroup;
  if (c.arrival.kind == ArrivalKind::kClosedLoop && c.num_clients > slots) {
    return "--clients=" + std::to_string(c.num_clients) + " is above --client-groups=" +
           std::to_string(c.client_groups) + " x " + std::to_string(kMaxSlotsPerGroup) +
           ", the closed loop's in-flight capacity";
  }
  const size_t regions = c.topology.n != 0 ? c.topology.region_latency.size() : c.regions;
  for (const StrategyEntry& e : c.strategy.entries) {
    for (const std::vector<uint32_t>& group : e.partition) {
      for (const uint32_t id : group) {
        if (id >= c.n) {
          return "--strategy partitions replica " + std::to_string(id) +
                 ", outside --n=" + n;
        }
      }
    }
    for (const uint32_t region : e.outage_regions) {
      if (region >= regions) {
        return "--strategy takes down region " + std::to_string(region) +
               ", but the run's regions are 0.." + std::to_string(regions - 1) +
               " (--regions)";
      }
    }
  }
  return {};
}

bool ResolveSinglePoint(CommandLine* cl, std::string* error) {
  const auto given = [&](const char* flag) {
    return std::any_of(cl->run.overrides.begin(), cl->run.overrides.end(),
                       [&](const KnobSetting& s) { return s.flag == flag; });
  };
  ExperimentConfig& c = cl->config;
  if (c.regions > 1) {
    if (!given("timer_ms")) c.view_timer = Millis(1200);
    if (!given("delta_ms")) c.delta = Millis(160);
  }
  if (!given("victims")) c.rollback_victims = c.f();
  *error = CheckConfig(c);
  return error->empty();
}

std::string DescribeConfig(const ExperimentConfig& config) {
  std::string out;
  for (const Knob& k : Knobs()) {
    if (k.scope != KnobScope::kConfig) continue;
    if (!out.empty()) out += ' ';
    out += "--" + k.name + "=" + ShellQuote(k.get(config));
  }
  return out;
}

std::string HelpText(const char* intro) {
  constexpr size_t kIndent = 30;
  const std::pair<KnobScope, const char*> sections[] = {
      {KnobScope::kConfig,
       "Experiment knobs. hs1sim runs one point from them; with a scenario,\n"
       "each one given is forced onto every point unless the scenario sweeps\n"
       "that knob itself:"},
      {KnobScope::kExecutor, "Executor (results are byte-identical at any setting):"},
      {KnobScope::kRun, "Run options:"},
      {KnobScope::kScenarioRun, "Scenario options:"},
      {KnobScope::kPointRun, "Single-point options:"}};
  std::string out = intro;
  for (const auto& [scope, title] : sections) {
    out += "\n" + std::string(title) + "\n";
    for (const Knob& k : Knobs()) {
      if (k.scope != scope) continue;
      std::string line = "  --" + k.name + (k.syntax.empty() ? "" : "=" + k.syntax);
      line += line.size() < kIndent ? std::string(kIndent - line.size(), ' ')
                                    : "\n" + std::string(kIndent, ' ');
      for (const char c : k.help) {
        line += c;
        if (c == '\n') line += std::string(kIndent, ' ');
      }
      out += line + "\n";
    }
  }
  return out;
}

}  // namespace hotstuff1
