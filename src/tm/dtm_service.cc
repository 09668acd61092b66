#include "src/tm/dtm_service.h"

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/durability/partition_log.h"
#include "src/shmem/abort_status.h"

namespace tm2c {

DtmService::DtmService(CoreEnv& env, const TmConfig& config, const AddressMap* map)
    : env_(env), config_(config), map_(map), cm_(MakeContentionManager(config.cm)) {
  TM2C_CHECK_MSG(config_.abort_status_base != UINT64_MAX,
                 "DtmService needs TmConfig::abort_status_base (see AllocAbortStatusWords)");
}

void DtmService::AttachDurability(PartitionDurability* durability) {
  durability_ = durability;
  if (durability_ != nullptr && trace_ != nullptr) {
    durability_->set_trace(trace_);
  }
}

void DtmService::set_trace(TxTraceSink* trace) {
  trace_ = trace;
  if (durability_ != nullptr) {
    durability_->set_trace(trace);
  }
}

void DtmService::RunLoop() {
  if (durability_ == nullptr) {
    // The pre-durability loop, byte-identical in behaviour and timing.
    for (;;) {
      Message msg = env_.Recv();
      if (msg.type == MsgType::kShutdown) {
        return;
      }
      TM2C_CHECK_MSG(HandleMessage(msg), "non-DTM message reached a dedicated service core");
    }
  }
  // Durable variant: before blocking on an empty inbox, close the open
  // group-commit window — a committer may be waiting on a deferred ack,
  // and nothing else would ever trigger the flush.
  for (;;) {
    Message msg;
    if (!env_.TryRecv(&msg)) {
      FlushCommitLog();
      msg = env_.Recv();
    }
    if (msg.type == MsgType::kShutdown) {
      FlushCommitLog();
      return;
    }
    TM2C_CHECK_MSG(HandleMessage(msg), "non-DTM message reached a dedicated service core");
  }
}

bool DtmService::HandleMessage(const Message& msg) {
  switch (msg.type) {
    case MsgType::kEcho: {
      // Latency probe: respond immediately (Figure 8(a) methodology).
      Message rsp;
      rsp.type = MsgType::kEchoRsp;
      rsp.w0 = msg.w0;
      env_.Send(msg.src, std::move(rsp));
      return true;
    }
    case MsgType::kBatchAcquire:
      env_.Send(msg.src, ServeAcquire(msg));
      return true;
    case MsgType::kReleaseAllReads:
    case MsgType::kReleaseAllWrites:
    case MsgType::kEarlyReadRelease:
      HandleRelease(msg);
      return true;
    case MsgType::kCommitLog:
      HandleCommitLog(msg);
      return true;
    case MsgType::kMigrateRange:
      BeginMigration(msg.w0, msg.w1, static_cast<uint32_t>(msg.w2));
      return true;
    case MsgType::kOwnershipUpdate:
      // The ownership directory is shared state; the broadcast only exists
      // to wake peers out of stale routing promptly. Nothing to apply.
      return true;
    default:
      return false;
  }
}

Message DtmService::HandleLocal(const Message& request) {
  if (request.type == MsgType::kBatchAcquire) {
    return ServeAcquire(request);
  }
  // Releases and migration requests: fire-and-forget, no response.
  TM2C_CHECK_MSG(HandleMessage(request), "unexpected message type in DtmService::HandleLocal");
  return Message{};
}

void DtmService::ChargeProcessing(uint64_t items) {
  // Service-side processing cost per request, in service-core cycles
  // (drives the service saturation behaviour of Figure 5(b)).
  constexpr uint64_t kServiceBaseCycles = 120;
  constexpr uint64_t kServicePerItemCycles = 40;
  env_.Compute(kServiceBaseCycles + kServicePerItemCycles * items);
}

void DtmService::NotifyVictims(const std::vector<Victim>& victims) {
  for (const Victim& victim : victims) {
    if (trace_ != nullptr) {
      trace_->OnRevocation(env_.core_id(), victim.info.core, victim.info.epoch, victim.kind);
    }
    // FaultMode::kIgnoreRevocation (verification only): the locks are gone
    // — the CM's decision stands and the winner proceeds — but the victim
    // is never told: no record for the stale-epoch refusal (stale batch
    // entries will be granted), no abort-status publication, no
    // notification message.
    if (config_.fault == FaultMode::kIgnoreRevocation) {
      continue;
    }
    RemoteCoreState& state = remote_state_[victim.info.core];
    if (state.aborted_epoch == victim.info.epoch) {
      continue;  // this node already notified that transaction attempt
    }
    state.aborted_epoch = victim.info.epoch;
    state.aborted_kind = victim.kind;
    ++stats_.notifications_sent;
    // Publish the abort to the victim's shared status word (the paper's
    // "status atomically switched from pending to aborted"): the victim
    // checks it atomically with its persist, which closes the race between
    // this revocation and the victim's commit point — a persist already
    // under way is waited out, so the grant this revocation pays for can
    // never expose the victim's old values (src/shmem/abort_status.h). The
    // timed read pays the modelled write latency. The message below
    // remains the prompt wake-up path.
    const uint64_t status_addr = config_.abort_status_base + victim.info.core * kWordBytes;
    (void)env_.ShmemRead(status_addr);
    PublishRevocation(env_.shmem(), status_addr, victim.info.epoch);
    if (victim.info.core == env_.core_id()) {
      // Multitasked deployment: the victim runs on this very core.
      TM2C_CHECK_MSG(local_abort_sink_ != nullptr,
                     "revoked a local transaction but no local abort sink is registered");
      local_abort_sink_(victim.info.epoch, victim.kind);
      continue;
    }
    Message notify;
    notify.type = MsgType::kAbortNotify;
    notify.w1 = victim.info.epoch;
    notify.w2 = static_cast<uint64_t>(victim.kind);
    env_.Send(victim.info.core, std::move(notify));
  }
}

Message DtmService::ServeAcquire(const Message& msg) {
  // A one-entry request carries its stripe in w3 (five words on the wire);
  // a multi-entry one carries the list.
  const bool listed = !msg.extra.empty();
  AdmitRequest request;
  request.core = msg.src;
  request.epoch = msg.w1;
  request.metric_wire = msg.w2;
  request.addrs = listed ? msg.extra.data() : &msg.w3;
  request.n = listed ? static_cast<uint32_t>(msg.extra.size()) : 1;
  request.is_write = (msg.w0 & kBatchFlagWrite) != 0;
  request.committing = (msg.w0 & kBatchFlagCommit) != 0;
  TM2C_CHECK_MSG(request.n <= kMaxBatchEntries, "oversized batch request");
  if (listed) {
    ++stats_.batch_requests;
    stats_.batch_entries += request.n;
  }
  const AdmitResult result = Admit(request);

  // The request id in the bits above the flags is opaque to the service:
  // it is echoed in the reply so a pipelining requester can match
  // interleaved replies to their requests.
  Message rsp;
  rsp.type = MsgType::kBatchReply;
  rsp.w0 = PrefixBitmap(result.granted);
  rsp.w1 = msg.w1;
  rsp.w2 = static_cast<uint64_t>(result.refused);
  rsp.w3 = (msg.w0 >> kBatchReqIdShift << kBatchReqIdShift) | result.granted;
  return rsp;
}

DtmService::AdmitResult DtmService::Admit(const AdmitRequest& request) {
  ++stats_.requests;
  if (request.direct) {
    ++stats_.local_direct_requests;
    stats_.local_direct_entries += request.n;
  }
  ChargeProcessing(request.n);
  AdmitResult result;

  // A request from an attempt this node already revoked is refused whole
  // (no entry granted); the refusal races with (and is equivalent to) the
  // in-flight abort notification. Under the multitasked deployment the
  // revocation may have been decided by a request this very core served,
  // so the check is as necessary on the direct path as on the wire.
  RemoteCoreState& state = remote_state_[request.core];
  if (state.aborted_epoch == request.epoch) {
    ++stats_.stale_requests_refused;
    result.refused = state.aborted_kind;
    return result;
  }

  // Admission control sheds non-committing requests while the inbox is
  // above the high-water mark. Direct calls never queued, so there is no
  // backlog for them to add to.
  if (!request.direct && !request.committing && config_.overload_high_water > 0 &&
      env_.InboxDepth() > config_.overload_high_water) {
    ++stats_.overload_refused;
    result.refused = ConflictKind::kOverload;
    return result;
  }

  NoteAcquiresForPolicy(request.addrs, request.n);

  // Misrouted entries terminate the grant prefix: granting a stripe this
  // node does not own would split its lock state across two tables (a
  // request routed before a directory flip can still land here). Entries
  // inside an open drain window cut the prefix the same way (skipped under
  // the planted fault). Both cuts are retryable and carry kMigrating: the
  // requester re-routes on retry.
  uint32_t routed = request.n;
  for (uint32_t i = 0; i < request.n; ++i) {
    const uint64_t stripe = request.addrs[i];
    if (map_ != nullptr && map_->ResponsibleCore(stripe) != env_.core_id()) {
      routed = i;
      ++stats_.misrouted_refused;
      break;
    }
    if (config_.fault != FaultMode::kGrantDuringMigration && MigratingStripe(stripe)) {
      routed = i;
      ++stats_.migrating_refused;
      break;
    }
  }

  // The requester's CM metric is decoded once for the whole request.
  TxInfo requester;
  requester.core = request.core;
  requester.epoch = request.epoch;
  requester.metric = cm_->MetricFromWire(request.metric_wire, env_.LocalNow());
  const uint64_t writes = request.is_write ? ~uint64_t{0} : 0;
  const BatchAcquireResult acquired = table_.TryAcquireMany(
      requester, request.addrs, routed, writes, *cm_, request.committing);
  NotifyVictims(acquired.victims);
  if (trace_ != nullptr && acquired.granted_count > 0) {
    TraceGrants(request.core, request.addrs, acquired.granted_count);
  }
  result.granted = acquired.granted_count;
  if (result.granted < request.n) {
    // CM refusals carry their kind; a prefix cut by routing or an open
    // drain window carries kMigrating.
    result.refused =
        acquired.refused != ConflictKind::kNone ? acquired.refused : ConflictKind::kMigrating;
  }
  return result;
}

void DtmService::HandleCommitLog(const Message& msg) {
  TM2C_CHECK_MSG(durability_ != nullptr, "kCommitLog reached a service without durability");
  TM2C_CHECK_MSG(msg.extra.size() >= 2 && msg.extra.size() % 2 == 0,
                 "malformed kCommitLog payload");
  ChargeProcessing(msg.extra.size() / 2);

  if (!recovered_commits_.empty()) {
    const auto it = recovered_commits_.find({msg.src, msg.w1});
    if (it != recovered_commits_.end()) {
      // Retransmitted after a restart: the record already survived in the
      // recovered log prefix, so re-appending would duplicate it. Ack with
      // its original index — the surviving prefix is durable by definition.
      SendCommitLogAck(msg.src, msg.w1, it->second);
      recovered_commits_.erase(it);
      return;
    }
  }

  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(msg.extra.size() / 2);
  for (size_t i = 0; i < msg.extra.size(); i += 2) {
    pairs.emplace_back(msg.extra[i], msg.extra[i + 1]);
  }
  const bool checkpoint_due = durability_->LogCommit(msg.src, msg.w1, pairs);
  // Counted at the append, not at message receipt: the horizon can freeze
  // this fiber inside ChargeProcessing above, and a record counted but
  // never appended would break the exact accounting the durability
  // ablation asserts (commit_records == appended records, always).
  ++stats_.commit_records;
  const uint64_t record_index = durability_->wal().appended_records() - 1;
  // Append cost: the record's framed payload, word by word, charged on
  // the service core (calibrated with the flush costs in FlushCommitLog).
  constexpr uint64_t kLogAppendCyclesPerWord = 30;
  env_.Compute(kLogAppendCyclesPerWord * (3 + msg.extra.size()));

  if (config_.fault == FaultMode::kAckBeforeLogFlush) {
    // Planted fault (verification only): acknowledge against the volatile
    // log tail — the commit completes before its record is durable.
    SendCommitLogAck(msg.src, msg.w1, record_index);
  } else {
    pending_acks_.push_back(PendingAck{msg.src, msg.w1, record_index});
  }

  if (checkpoint_due || durability_->unflushed_records() >= config_.group_commit_txs) {
    FlushCommitLog();
    if (checkpoint_due) {
      // Flush-then-checkpoint: a checkpoint never covers unflushed records,
      // so the durable watermark stays monotone through it.
      durability_->TakeCheckpoint();
    }
  }
}

void DtmService::SendCommitLogAck(uint32_t core, uint64_t epoch, uint64_t record_index) {
  if (trace_ != nullptr) {
    trace_->OnCommitLogAck(durability_->partition(), core, epoch, record_index);
  }
  Message ack;
  ack.type = MsgType::kCommitLogAck;
  ack.w1 = epoch;
  env_.Send(core, std::move(ack));
}

void DtmService::FlushCommitLog() {
  if (durability_ == nullptr) {
    return;
  }
  if (durability_->Flush() > 0) {
    ++stats_.log_flushes;
    // Simulated flush cost per mode, charged on the service core.
    // Calibrated with the append cost so the ablation's expected ordering
    // (off >= buffered >= fsync) is the model's behaviour, not an
    // accident: an fsync is ~a disk round trip.
    constexpr uint64_t kLogFlushBufferedCycles = 400;
    constexpr uint64_t kLogFlushFsyncCycles = 20000;
    env_.Compute(durability_->mode() == DurabilityMode::kFsync ? kLogFlushFsyncCycles
                                                               : kLogFlushBufferedCycles);
  }
  for (const PendingAck& ack : pending_acks_) {
    SendCommitLogAck(ack.core, ack.epoch, ack.record_index);
  }
  pending_acks_.clear();
}

void DtmService::HandleRelease(const Message& msg) {
  ++stats_.releases;
  switch (msg.type) {
    case MsgType::kEarlyReadRelease:
      ChargeProcessing(1);
      table_.ReleaseRead(msg.src, msg.w0);
      break;
    case MsgType::kReleaseAllReads:
      ChargeProcessing(msg.extra.size());
      for (uint64_t addr : msg.extra) {
        table_.ReleaseRead(msg.src, addr);
      }
      break;
    case MsgType::kReleaseAllWrites:
      ChargeProcessing(msg.extra.size());
      for (uint64_t addr : msg.extra) {
        table_.ReleaseWrite(msg.src, addr);
      }
      break;
    default:
      TM2C_FATAL("not a release message");
  }
  // A release may have emptied a draining range; the flip happens at the
  // instant the last holder lets go.
  MaybeCompleteMigrations();
}

void DtmService::QuiesceFlush() {
  if (durability_ == nullptr) {
    return;
  }
  if (durability_->Flush() > 0) {
    ++stats_.log_flushes;
  }
  // Deferred acks are dropped, not sent: the committers are frozen past
  // the horizon, and a post-run ack would fabricate an event the crash
  // oracle would then have to explain.
  pending_acks_.clear();
}

bool DtmService::MigratingStripe(uint64_t stripe) const {
  if (migrating_out_.empty()) {
    return false;
  }
  auto it = migrating_out_.upper_bound(stripe);
  if (it == migrating_out_.begin()) {
    return false;
  }
  --it;
  return stripe - it->first < it->second.bytes;
}

void DtmService::TraceGrants(uint32_t requester_core, const uint64_t* addrs, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    trace_->OnLockGrant(env_.core_id(), requester_core, addrs[i]);
  }
}

void DtmService::BeginMigration(uint64_t base, uint64_t bytes, uint32_t target_partition) {
  TM2C_CHECK_MSG(map_ != nullptr, "migration requires an AddressMap");
  uint64_t rbase = 0;
  uint64_t rbytes = 0;
  uint32_t owner = 0;
  TM2C_CHECK_MSG(map_->FindOwnedRange(base, &rbase, &rbytes, &owner) && rbase == base &&
                     rbytes == bytes,
                 "kMigrateRange must name an exact registered owned range");
  const DeploymentPlan& plan = env_.plan();
  if (plan.ServiceCore(owner) != env_.core_id()) {
    return;  // stale request: the range already lives elsewhere
  }
  if (target_partition == owner || target_partition >= plan.num_service()) {
    return;  // nothing to move (or a nonsense target)
  }
  if (migrating_out_.find(base) != migrating_out_.end()) {
    return;  // a drain of this range is already open
  }
  ++stats_.migrations_started;
  if (trace_ != nullptr) {
    trace_->OnMigrationBegin(env_.core_id(), plan.ServiceCore(target_partition), base, bytes);
  }
  migrating_out_.emplace(base, MigratingRange{bytes, target_partition});
  if (config_.fault == FaultMode::kGrantDuringMigration) {
    // Planted fault (verification only): the drain window opens but the
    // owner neither revokes nor refuses — grants keep flowing, the range
    // never empties, and the window stays open to the horizon. Exactly the
    // execution CheckMigrationHistory must flag.
    return;
  }
  // Drain: revoke every revocable holder in the range through the normal
  // CM notification path. Commit-phase writers are left to finish — their
  // releases close the window through MaybeCompleteMigrations.
  uint64_t remaining = 0;
  const std::vector<Victim> victims = table_.DrainRange(base, bytes, &remaining);
  ChargeProcessing(victims.size() + 1);
  NotifyVictims(victims);
  MaybeCompleteMigrations();
}

void DtmService::MaybeCompleteMigrations() {
  if (migrating_out_.empty() || config_.fault == FaultMode::kGrantDuringMigration) {
    return;
  }
  for (auto it = migrating_out_.begin(); it != migrating_out_.end();) {
    if (table_.EntriesInRange(it->first, it->second.bytes) != 0) {
      ++it;
      continue;
    }
    const uint64_t base = it->first;
    const uint64_t bytes = it->second.bytes;
    const uint32_t target = it->second.target_partition;
    it = migrating_out_.erase(it);
    // The epoch bump: requests routed against the old directory version
    // are refused whole (kMigrating) by the ownership check, so no stale
    // batch can split the range's lock state across the two tables.
    const uint64_t version = map_->MoveOwnedRange(base, bytes, target);
    ++stats_.migrations_completed;
    const uint32_t to_core = env_.plan().ServiceCore(target);
    if (trace_ != nullptr) {
      trace_->OnMigrationComplete(env_.core_id(), to_core, base, bytes, version);
    }
    // Broadcast the flip so peers drop stale routing promptly instead of
    // discovering it through kMigrating refusals. The directory itself is
    // shared, so the notification carries only the version for ordering.
    for (uint32_t core = 0; core < env_.plan().num_cores(); ++core) {
      if (core == env_.core_id()) {
        continue;
      }
      Message upd;
      upd.type = MsgType::kOwnershipUpdate;
      upd.w0 = base;
      upd.w1 = bytes;
      upd.w2 = target;
      upd.w3 = version;
      env_.Send(core, std::move(upd));
    }
  }
}

void DtmService::NoteAcquiresForPolicy(const uint64_t* addrs, uint32_t n) {
  if (config_.migrate_check_every == 0 || map_ == nullptr) {
    return;
  }
  const uint32_t self = env_.plan().PartitionOf(env_.core_id());
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t base = 0;
    uint32_t partition = 0;
    if (map_->FindOwnedRange(addrs[i], &base, nullptr, &partition) && partition == self) {
      ++range_hits_[base];
    }
  }
  if (++policy_countdown_ < config_.migrate_check_every) {
    return;
  }
  policy_countdown_ = 0;
  // Hottest still-owned range above the threshold moves to the next
  // partition (round-robin: the policy's job is shedding load off this
  // core, not global placement). Ties break towards the lowest base so the
  // decision is deterministic.
  uint64_t hot_base = 0;
  uint64_t hot_bytes = 0;
  uint64_t hot_hits = 0;
  for (const auto& [base, hits] : range_hits_) {
    if (hits < hot_hits || (hits == hot_hits && hot_hits > 0 && base > hot_base)) {
      continue;
    }
    if (migrating_out_.find(base) != migrating_out_.end()) {
      continue;
    }
    uint64_t bytes = 0;
    uint32_t partition = 0;
    if (map_->FindOwnedRange(base, nullptr, &bytes, &partition) && partition == self) {
      hot_base = base;
      hot_bytes = bytes;
      hot_hits = hits;
    }
  }
  range_hits_.clear();
  if (config_.migrate_hot_threshold > 0 && hot_hits >= config_.migrate_hot_threshold &&
      hot_bytes > 0) {
    BeginMigration(hot_base, hot_bytes,
                   (self + 1) % env_.plan().num_service());
  }
}

}  // namespace tm2c
