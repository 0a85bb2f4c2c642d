// Scenario: a structured description of a contemplated acquisition.
//
// A Scenario captures the facts the paper's doctrine turns on: who acts,
// what kind of data is touched, where it lives, whether it moves in real
// time, how exposed it is, and which special circumstances (consent,
// attack victim, arrest, prior lawful acquisition, ...) are present.
// The ComplianceEngine maps a Scenario to a Determination.

#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "legal/types.h"

namespace lexfor::legal {

struct Scenario {
  // Free-text label used in reports ("Table 1 scene 7").
  std::string name;

  // Who performs the acquisition.
  ActorKind actor = ActorKind::kLawEnforcement;
  // True when a nominally private actor is directed by the government,
  // which makes the Fourth Amendment apply to them ("acting under color
  // of law").
  bool acting_under_color_of_law = false;

  // What is acquired, where, and when.
  DataKind data = DataKind::kContent;
  DataState state = DataState::kInTransit;
  Timing timing = Timing::kRealTime;

  // Exposure facts driving the REP analysis (§II.C).
  bool knowingly_exposed_to_public = false;   // posted/broadcast publicly
  bool shared_with_third_party = false;       // handed to others / shared folder
  bool delivered_to_recipient = false;        // transmission completed
  bool inside_home = false;                   // acquisition reveals home interior
  bool via_sense_enhancing_tech = false;      // Kyllo-style device
  bool tech_in_general_public_use = false;    // Kyllo factor (i)
  bool readily_accessible_to_public = false;  // 2511(2)(g)(i): open broadcast
  bool encrypted = false;                     // configured as non-public

  // Provider facts (SCA).
  ProviderClass provider = ProviderClass::kNotAProvider;
  // For stored email: opened/retrieved messages at a non-public provider
  // fall out of the SCA entirely (§III.A.3 Alice/Bob example).
  bool message_opened_by_recipient = false;

  // Consent and special circumstances (§III.B).
  ConsentKind consent = ConsentKind::kNone;
  bool consent_revoked = false;
  // The target area is another user's password-protected space: a
  // co-user's (or spouse's) consent cannot reach it (Trulock v. Freeh).
  bool target_area_password_protected = false;
  bool is_victim_system = false;       // monitoring happens on the victim's system
  bool targets_attacker_system = false;// reaches into the attacker's own machine
  bool exigent_circumstances = false;
  bool in_plain_view = false;          // lawful vantage, incriminating nature apparent
  bool target_on_probation = false;
  bool emergency_pen_trap = false;     // § 3125(a) emergency
  bool provider_self_protection = false;  // provider monitoring its own system

  // Jurisdiction code ("US" federal baseline; state codes like "CA"
  // switch the consent regime to all-party, §III.B.c.vi).
  std::string jurisdiction = "US";

  // Device / stored-data history (Table-1 scenes 18-20).
  bool device_lawfully_in_custody = false;       // hardware lawfully held
  bool contents_previously_lawfully_acquired = false;  // data itself already lawfully obtained
  bool credentials_lawfully_obtained = false;    // username/password lawfully in hand
  bool target_arrested = false;

  // --- fluent setters so scene definitions read like the table rows ---
  Scenario& named(std::string n) { name = std::move(n); return *this; }
  Scenario& by(ActorKind a) { actor = a; return *this; }
  Scenario& under_color_of_law(bool v = true) { acting_under_color_of_law = v; return *this; }
  Scenario& acquiring(DataKind k) { data = k; return *this; }
  Scenario& located(DataState s) { state = s; return *this; }
  Scenario& when(Timing t) { timing = t; return *this; }
  Scenario& exposed_publicly(bool v = true) { knowingly_exposed_to_public = v; return *this; }
  Scenario& shared(bool v = true) { shared_with_third_party = v; return *this; }
  Scenario& delivered(bool v = true) { delivered_to_recipient = v; return *this; }
  Scenario& in_home(bool v = true) { inside_home = v; return *this; }
  Scenario& sense_enhancing(bool v = true) { via_sense_enhancing_tech = v; return *this; }
  Scenario& general_public_use(bool v = true) { tech_in_general_public_use = v; return *this; }
  Scenario& publicly_accessible(bool v = true) { readily_accessible_to_public = v; return *this; }
  Scenario& with_encryption(bool v = true) { encrypted = v; return *this; }
  Scenario& at_provider(ProviderClass p) { provider = p; return *this; }
  Scenario& opened(bool v = true) { message_opened_by_recipient = v; return *this; }
  Scenario& with_consent(ConsentKind c) { consent = c; return *this; }
  Scenario& in_jurisdiction(std::string code) { jurisdiction = std::move(code); return *this; }
  Scenario& revoked(bool v = true) { consent_revoked = v; return *this; }
  Scenario& password_protected(bool v = true) { target_area_password_protected = v; return *this; }
  Scenario& on_victim_system(bool v = true) { is_victim_system = v; return *this; }
  Scenario& reaching_attacker(bool v = true) { targets_attacker_system = v; return *this; }
  Scenario& exigent(bool v = true) { exigent_circumstances = v; return *this; }
  Scenario& plain_view(bool v = true) { in_plain_view = v; return *this; }
  Scenario& probationer(bool v = true) { target_on_probation = v; return *this; }
  Scenario& pen_trap_emergency(bool v = true) { emergency_pen_trap = v; return *this; }
  Scenario& provider_protecting(bool v = true) { provider_self_protection = v; return *this; }
  Scenario& device_in_custody(bool v = true) { device_lawfully_in_custody = v; return *this; }
  Scenario& previously_acquired(bool v = true) { contents_previously_lawfully_acquired = v; return *this; }
  Scenario& with_credentials(bool v = true) { credentials_lawfully_obtained = v; return *this; }
  Scenario& arrested(bool v = true) { target_arrested = v; return *this; }

  // True when the actor is bound by the Fourth Amendment: law
  // enforcement, or a private party acting at the government's behest.
  [[nodiscard]] bool government_actor() const noexcept {
    return actor == ActorKind::kLawEnforcement ||
           actor == ActorKind::kGovernmentAgent ||
           acting_under_color_of_law;
  }
};

// The Scenario flags in their one canonical pack order: bit i of the
// packed word is kScenarioFlags[i].  The verdict-cache fingerprint
// (batch.cpp) and the serve wire request both carry the flags this way,
// so a new flag is appended here, never inserted: reordering would move
// every fingerprint and frame (tests/serve/wire_golden_test.cpp).
inline constexpr bool Scenario::*const kScenarioFlags[] = {
    &Scenario::acting_under_color_of_law,
    &Scenario::knowingly_exposed_to_public,
    &Scenario::shared_with_third_party, &Scenario::delivered_to_recipient,
    &Scenario::inside_home, &Scenario::via_sense_enhancing_tech,
    &Scenario::tech_in_general_public_use,
    &Scenario::readily_accessible_to_public, &Scenario::encrypted,
    &Scenario::message_opened_by_recipient, &Scenario::consent_revoked,
    &Scenario::target_area_password_protected, &Scenario::is_victim_system,
    &Scenario::targets_attacker_system, &Scenario::exigent_circumstances,
    &Scenario::in_plain_view, &Scenario::target_on_probation,
    &Scenario::emergency_pen_trap, &Scenario::provider_self_protection,
    &Scenario::device_lawfully_in_custody,
    &Scenario::contents_previously_lawfully_acquired,
    &Scenario::credentials_lawfully_obtained, &Scenario::target_arrested};
inline constexpr unsigned kScenarioFlagCount = std::size(kScenarioFlags);
static_assert(kScenarioFlagCount <= 32, "the flags must fit one u32");

// Both unroll at compile time: the fingerprint and the wire decoder run
// them on every request.
[[nodiscard]] inline std::uint32_t pack_flags(const Scenario& s) noexcept {
  return [&s]<std::size_t... I>(std::index_sequence<I...>) {
    return ((std::uint32_t{s.*kScenarioFlags[I]} << I) | ...);
  }(std::make_index_sequence<kScenarioFlagCount>{});
}

inline void unpack_flags(std::uint32_t bits, Scenario& s) noexcept {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((s.*kScenarioFlags[I] = ((bits >> I) & 1u) != 0), ...);
  }(std::make_index_sequence<kScenarioFlagCount>{});
}

}  // namespace lexfor::legal
