#include "core/slate_projection.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mwr::core {

std::vector<double> cap_to_slate_marginals(std::span<const double> p,
                                           std::size_t slate_size) {
  double mass = 0.0;
  double max_p = 0.0;
  for (const double v : p) {
    mass += v;
    max_p = std::max(max_p, v);
  }
  std::vector<double> q;
  cap_to_slate_marginals_into(p, slate_size, mass, max_p, q);
  return q;
}

void cap_to_slate_marginals_into(std::span<const double> p,
                                 std::size_t slate_size, double mass,
                                 double max_p, std::vector<double>& q) {
  const std::size_t k = p.size();
  const auto s = static_cast<double>(slate_size);
  if (slate_size == 0 || slate_size > k)
    throw std::invalid_argument("cap_to_slate_marginals: bad slate size");

  // Fixpoint: scale the uncapped mass to fill (s - num_capped), cap anything
  // that overflows 1, repeat.  Each round caps at least one new entry, so at
  // most k rounds run.  An uncapped entry keeps its input value p[i] until
  // the end, so one pass per round both caps and writes the scaled value
  // and folds the surviving p[i] into the next round's mass — ascending,
  // skipping the capped entries, i.e. the same strict left-to-right sum a
  // separate pass would take.
  //
  // No flags are kept: q starts at zero, a capped entry holds exactly 1.0
  // and an uncapped one a scaled value below 1, so q itself marks the
  // capped set.
  q.assign(k, 0.0);
  std::size_t num_capped = 0;
  for (;;) {
    const double target = s - static_cast<double>(num_capped);
    if (target <= 0.0) {
      // All slate slots are consumed by capped entries; zero the rest.
      for (std::size_t i = 0; i < k; ++i) {
        if (q[i] != 1.0) q[i] = 0.0;
      }
      return;
    }
    if (mass <= 0.0) {
      // Degenerate distribution (all mass capped or zero): spread the
      // remaining slots uniformly over uncapped entries.
      const double fill = target / static_cast<double>(k - num_capped);
      for (std::size_t i = 0; i < k; ++i) {
        if (q[i] != 1.0) q[i] = fill;
      }
      return;
    }
    const double scale = target / mass;
    if (max_p * scale < 1.0) {
      // The final round, known before it runs: rounding a product is
      // monotone in p[i], so no p[i] <= max_p scales to the cap, and
      // nothing needs the next round's mass.
      for (std::size_t i = 0; i < k; ++i) {
        if (q[i] != 1.0) q[i] = p[i] * scale;
      }
      return;
    }
    double next_mass = 0.0;
    double next_max = 0.0;
    bool newly_capped = false;
    for (std::size_t i = 0; i < k; ++i) {
      if (q[i] == 1.0) continue;
      const double scaled = p[i] * scale;
      if (scaled >= 1.0) {
        q[i] = 1.0;
        ++num_capped;
        newly_capped = true;
      } else {
        q[i] = scaled;
        next_mass += p[i];
        next_max = std::max(next_max, p[i]);
      }
    }
    if (!newly_capped) return;
    mass = next_mass;
    max_p = next_max;
  }
}

std::vector<SlateComponent> decompose_into_slates(std::span<const double> q,
                                                  std::size_t slate_size) {
  const std::size_t k = q.size();
  const auto s = static_cast<double>(slate_size);
  if (slate_size == 0 || slate_size > k)
    throw std::invalid_argument("decompose_into_slates: bad slate size");
  double total = 0.0;
  for (double v : q) {
    if (v < -1e-12 || v > 1.0 + 1e-12)
      throw std::invalid_argument("decompose_into_slates: q_i outside [0, 1]");
    total += v;
  }
  if (std::abs(total - s) > 1e-6 * s)
    throw std::invalid_argument("decompose_into_slates: sum(q) != slate size");

  std::vector<double> v(q.begin(), q.end());
  double remaining = 1.0;  // invariant: sum(v) == slate_size * remaining
  std::vector<SlateComponent> components;
  std::vector<std::size_t> order(k);

  constexpr double kEps = 1e-12;
  while (remaining > kEps) {
    // Select the slate_size largest entries.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(slate_size),
                      order.end(),
                      [&](std::size_t a, std::size_t b) { return v[a] > v[b]; });
    SlateComponent component;
    component.members.assign(order.begin(),
                             order.begin() +
                                 static_cast<std::ptrdiff_t>(slate_size));
    std::sort(component.members.begin(), component.members.end());
    // Coefficient: limited by the smallest selected entry (it may reach 0)
    // and by keeping every unselected entry <= the new remaining mass.
    double smallest_selected = v[component.members.front()];
    for (std::size_t i : component.members)
      smallest_selected = std::min(smallest_selected, v[i]);
    double largest_unselected = 0.0;
    for (std::size_t i = slate_size; i < k; ++i)
      largest_unselected = std::max(largest_unselected, v[order[i]]);
    double c = std::min(smallest_selected, remaining - largest_unselected);
    c = std::min(c, remaining);
    if (c <= kEps) {
      // Numerical corner: residual mass is noise; emit the final component.
      c = remaining;
    }
    component.coefficient = c;
    for (std::size_t i : component.members) v[i] = std::max(0.0, v[i] - c);
    remaining -= c;
    components.push_back(std::move(component));
    if (components.size() > 2 * k + 2)
      throw std::logic_error("decompose_into_slates failed to terminate");
  }
  return components;
}

std::vector<std::size_t> systematic_sample(std::span<const double> q,
                                           std::size_t slate_size,
                                           util::RngStream& rng) {
  std::vector<std::size_t> selected;
  systematic_sample_into(q, slate_size, rng, selected);
  return selected;
}

void systematic_sample_into(std::span<const double> q, std::size_t slate_size,
                            util::RngStream& rng,
                            std::vector<std::size_t>& selected) {
  const std::size_t k = q.size();
  if (slate_size == 0 || slate_size > k)
    throw std::invalid_argument("systematic_sample: bad slate size");
  selected.clear();
  selected.reserve(slate_size);
  // Thresholds u, u+1, ..., u+s-1 walked against the cumulative sum of q.
  // Because each q_i <= 1, at most one threshold falls inside any item, so
  // the selected indices are distinct.
  double next_threshold = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < k && selected.size() < slate_size; ++i) {
    cumulative += q[i];
    if (next_threshold < cumulative) {
      selected.push_back(i);
      next_threshold += 1.0;
    }
  }
  // Floating-point shortfall: fill from the highest-q unselected items so
  // the slate always has exactly s members.
  if (selected.size() < slate_size) {
    std::vector<bool> in(k, false);
    for (std::size_t i : selected) in[i] = true;
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < k; ++i) {
      if (!in[i]) rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(),
              [&](std::size_t a, std::size_t b) { return q[a] > q[b]; });
    for (std::size_t i : rest) {
      if (selected.size() == slate_size) break;
      selected.push_back(i);
    }
    std::sort(selected.begin(), selected.end());
  }
}

}  // namespace mwr::core
