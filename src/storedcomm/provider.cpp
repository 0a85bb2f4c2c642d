#include "storedcomm/provider.h"

#include <algorithm>

#include "legal/admission.h"

namespace lexfor::storedcomm {

AccountId Provider::create_account(std::string address,
                                   SubscriberInfo subscriber) {
  const AccountId id = account_ids_.next();
  accounts_.push_back(Account{id, std::move(address), std::move(subscriber)});
  return id;
}

std::optional<Account> Provider::find_account(const std::string& address) const {
  const auto it =
      std::find_if(accounts_.begin(), accounts_.end(),
                   [&](const Account& a) { return a.address == address; });
  if (it == accounts_.end()) return std::nullopt;
  return *it;
}

Result<MessageId> Provider::deliver(const std::string& to, std::string from,
                                    std::string subject, Bytes body,
                                    SimTime now) {
  const auto account = find_account(to);
  if (!account) return NotFound("deliver: no account " + to);

  StoredMessage m;
  m.id = message_ids_.next();
  m.owner = account->id;
  m.from = std::move(from);
  m.to = to;
  m.subject = std::move(subject);
  m.body = std::move(body);
  m.arrived_at = now;
  const MessageId id = m.id;
  messages_.push_back(std::move(m));
  return id;
}

Status Provider::open_message(MessageId id, SimTime now) {
  for (auto& m : messages_) {
    if (m.id == id) {
      if (m.state == MessageState::kDeleted) {
        return FailedPrecondition("open_message: message was deleted");
      }
      m.state = MessageState::kOpened;
      if (!m.opened_at) m.opened_at = now;
      return Status::Ok();
    }
  }
  return NotFound("open_message: unknown message");
}

Status Provider::delete_message(MessageId id, SimTime now) {
  for (auto& m : messages_) {
    if (m.id == id) {
      m.state = MessageState::kDeleted;
      // A 2703(f) hold keeps a provider-side copy despite the deletion.
      if (preservation_active(m.owner, now)) m.retained_under_hold = true;
      return Status::Ok();
    }
  }
  return NotFound("delete_message: unknown message");
}

Status Provider::preservation_request(AccountId account, SimTime now,
                                      SimDuration duration) {
  const bool known = std::any_of(accounts_.begin(), accounts_.end(),
                                 [&](const Account& a) { return a.id == account; });
  if (!known) return NotFound("preservation_request: unknown account");
  holds_[account] = now + duration;
  return Status::Ok();
}

bool Provider::preservation_active(AccountId account, SimTime now) const {
  const auto it = holds_.find(account);
  return it != holds_.end() && now <= it->second;
}

const StoredMessage* Provider::find_message(MessageId id) const {
  for (const auto& m : messages_) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

std::vector<MessageId> Provider::mailbox(AccountId account) const {
  std::vector<MessageId> out;
  for (const auto& m : messages_) {
    if (m.owner == account && m.state != MessageState::kDeleted) {
      out.push_back(m.id);
    }
  }
  return out;
}

legal::ProviderClass Provider::classify(MessageId id) const {
  const auto* m = find_message(id);
  if (m == nullptr) return legal::ProviderClass::kNotAProvider;
  switch (m->state) {
    case MessageState::kAwaitingRetrieval:
      // Unretrieved mail is in ECS electronic storage on any provider.
      return legal::ProviderClass::kEcs;
    case MessageState::kOpened:
      // Opened mail: a public provider stores it as an RCS; a non-public
      // provider is neither ECS nor RCS for it (Andersen Consulting).
      return publicity_ == ProviderPublicity::kPublic
                 ? legal::ProviderClass::kRcs
                 : legal::ProviderClass::kNonPublic;
    case MessageState::kDeleted:
      return legal::ProviderClass::kNotAProvider;
  }
  return legal::ProviderClass::kNotAProvider;
}

legal::Determination Provider::required_process(DisclosureKind kind,
                                                MessageId message) const {
  // Records (subscriber/transactional) are about the account, not any one
  // message: the provider-level classification applies.  Content follows
  // the per-message lifecycle; when no message is identified we fall back
  // to the provider-level class.
  const legal::ProviderClass provider_level =
      publicity_ == ProviderPublicity::kPublic ? legal::ProviderClass::kEcs
                                               : legal::ProviderClass::kNonPublic;
  legal::ProviderClass cls = provider_level;
  if (kind == DisclosureKind::kContent && find_message(message) != nullptr) {
    cls = classify(message);
  }

  legal::Scenario s;
  s.named("compelled disclosure from provider '" + name_ + "'")
      .located(legal::DataState::kStoredAtProvider)
      .when(legal::Timing::kStored)
      .at_provider(cls);
  switch (kind) {
    case DisclosureKind::kBasicSubscriber:
      s.acquiring(legal::DataKind::kSubscriberRecords);
      break;
    case DisclosureKind::kTransactionalRecords:
      s.acquiring(legal::DataKind::kTransactionalRecords);
      break;
    case DisclosureKind::kContent: {
      s.acquiring(legal::DataKind::kContent);
      const auto* m = find_message(message);
      if (m != nullptr && m->state == MessageState::kOpened) s.opened();
      break;
    }
  }
  return legal::ComplianceEngine{}.evaluate(s);
}

MessageId Provider::most_recent_message(AccountId account) const {
  MessageId latest;
  for (const auto& m : messages_) {
    if (m.owner == account && m.state != MessageState::kDeleted) latest = m.id;
  }
  return latest;
}

DisclosureResult Provider::build_disclosure(DisclosureKind kind,
                                            AccountId account,
                                            legal::ProcessKind used) const {
  DisclosureResult out;
  out.kind = kind;
  out.process_used = used;
  switch (kind) {
    case DisclosureKind::kBasicSubscriber:
      for (const auto& a : accounts_) {
        if (a.id == account) out.subscriber = a.subscriber;
      }
      break;
    case DisclosureKind::kTransactionalRecords: {
      const auto it = transactions_.find(account);
      if (it != transactions_.end()) out.transaction_log = it->second;
      break;
    }
    case DisclosureKind::kContent:
      for (const auto& m : messages_) {
        const bool live = m.state != MessageState::kDeleted;
        // Messages deleted under a preservation hold are still disclosed.
        if (m.owner == account && (live || m.retained_under_hold)) {
          out.messages.push_back(m);
        }
      }
      break;
  }
  return out;
}

Result<DisclosureResult> Provider::compelled_disclosure(
    DisclosureKind kind, AccountId account,
    const legal::GrantedAuthority& authority, SimTime now) const {
  // Verify the account exists.
  const bool known = std::any_of(accounts_.begin(), accounts_.end(),
                                 [&](const Account& a) { return a.id == account; });
  if (!known) return NotFound("compelled_disclosure: unknown account");

  // Determine the requirement from the strictest covered message (for
  // content) or the record kind (for records).
  const MessageId probe = most_recent_message(account);
  const legal::Determination det = required_process(kind, probe);

  const legal::DataKind data_kind =
      kind == DisclosureKind::kContent
          ? legal::DataKind::kContent
          : (kind == DisclosureKind::kBasicSubscriber
                 ? legal::DataKind::kSubscriberRecords
                 : legal::DataKind::kTransactionalRecords);

  const Status admitted =
      legal::admit({legal::AdmissionSite::kDisclosure, det.scenario_name,
                    det.required_process, data_kind, name_, now}, authority);
  if (!admitted.ok()) return admitted;

  return build_disclosure(kind, account, authority.kind());
}

Result<DisclosureResult> Provider::voluntary_disclosure_to_government(
    DisclosureKind kind, AccountId account, bool emergency,
    bool user_consent) const {
  const bool known = std::any_of(accounts_.begin(), accounts_.end(),
                                 [&](const Account& a) { return a.id == account; });
  if (!known) return NotFound("voluntary_disclosure: unknown account");

  // § 2702: a provider to the public may not voluntarily disclose
  // customer content or records to the government, except with the
  // user's consent or in an emergency.  Non-public providers may
  // disclose freely.
  if (publicity_ == ProviderPublicity::kPublic && !emergency && !user_consent) {
    return PermissionDenied(
        "SCA 2702 bars a public provider from voluntarily disclosing "
        "customer information to the government absent consent or an "
        "emergency");
  }
  return build_disclosure(kind, account, legal::ProcessKind::kNone);
}

void Provider::log_transaction(AccountId account, std::string entry) {
  transactions_[account].push_back(std::move(entry));
}

}  // namespace lexfor::storedcomm
