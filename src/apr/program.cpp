#include "apr/program.hpp"

#include <stdexcept>

namespace mwr::apr {

std::uint64_t spec_fingerprint(const datasets::ScenarioSpec& spec) {
  std::uint64_t h = kFnvOffset;
  h = fnv_fold(h, spec.name);
  h = fnv_fold(h, spec.language);
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.options));
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.statements));
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.tests));
  h = fnv_fold(h, spec.coverage);
  h = fnv_fold(h, spec.safe_rate);
  h = fnv_fold(h, spec.repair_rate);
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.optimum));
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.min_repair_edits));
  h = fnv_fold(h, spec.value_noise);
  h = fnv_fold(h, spec.seed);
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.bug_id));
  h = fnv_fold(h, static_cast<std::uint64_t>(spec.relevance_localized));
  return h;
}

ProgramModel::ProgramModel(datasets::ScenarioSpec spec)
    : spec_(std::move(spec)) {
  if (spec_.statements == 0)
    throw std::invalid_argument("ProgramModel: scenario has no statements");
  if (spec_.coverage <= 0.0 || spec_.coverage > 1.0)
    throw std::invalid_argument("ProgramModel: coverage outside (0, 1]");
  covered_.reserve(
      static_cast<std::size_t>(spec_.coverage * static_cast<double>(spec_.statements)) + 1);
  for (std::size_t s = 0; s < spec_.statements; ++s) {
    if (is_covered(s)) covered_.push_back(static_cast<std::uint32_t>(s));
  }
  if (covered_.empty())
    throw std::invalid_argument("ProgramModel: no covered statements");
}

bool ProgramModel::is_covered(std::size_t statement) const {
  return hash_to_unit(stable_hash(spec_.seed, 0xC0FFEE, statement)) <
         spec_.coverage;
}

}  // namespace mwr::apr
