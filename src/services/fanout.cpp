#include "services/fanout.h"

#include "common/serial.h"

namespace interedge::services {

void group_fanout::local_join(const std::string& group, core::edge_addr member) {
  const bool inserted = local_members_[group].insert(member).second;
  if (inserted) core_.group_join(group, self_);
}

void group_fanout::local_leave(const std::string& group, core::edge_addr member) {
  auto it = local_members_.find(group);
  if (it == local_members_.end()) return;
  if (it->second.erase(member) > 0) core_.group_leave(group, self_);
  if (it->second.empty()) local_members_.erase(it);
}

bool group_fanout::is_local_member(const std::string& group, core::edge_addr member) const {
  auto it = local_members_.find(group);
  return it != local_members_.end() && it->second.count(member) > 0;
}

std::size_t group_fanout::local_member_count(const std::string& group) const {
  auto it = local_members_.find(group);
  return it == local_members_.end() ? 0 : it->second.size();
}

bool group_fanout::may_join(const std::string& group, core::edge_addr member, bool auto_open) {
  auto& global = core_.global();
  if (auto_open && !global.find_group(group)) {
    global.ensure_open_group(group);
  }
  return global.can_join(group, member);
}

group_fanout::role group_fanout::classify(const core::packet& pkt) const {
  const auto target = get_skey_u64(pkt.header, skey::target_domain);
  if (target) {
    return *target == core_.id() ? role::gateway_ingress : role::gateway_transit;
  }
  // No relay markers: from a host (origin) or an intra-domain relay copy
  // from a sibling SN.
  const auto src = pkt.header.meta_u64(ilp::meta_key::src_addr);
  if (src && pkt.l3_src == *src) return role::origin;
  // Copies from sibling SNs carry origin_addr; host-originated packets
  // relayed through an operator SN keep looking like origin (correct:
  // the first member-owning SN fans out).
  if (get_skey_u64(pkt.header, skey::origin_addr)) return role::relay;
  return role::origin;
}

core::outbound group_fanout::relay_copy(const core::packet& pkt, core::peer_id to,
                                        std::optional<edomain::edomain_id> target_domain) const {
  core::outbound o;
  o.to = to;
  o.header = pkt.header;
  o.header.flags &= static_cast<std::uint16_t>(~ilp::kFlagFromHost);
  set_skey_u64(o.header, skey::origin_addr,
               pkt.header.meta_u64(ilp::meta_key::src_addr).value_or(pkt.l3_src));
  if (target_domain) {
    set_skey_u64(o.header, skey::target_domain, *target_domain);
  } else {
    o.header.erase_meta(static_cast<std::uint16_t>(skey::target_domain));
  }
  o.payload = pkt.payload;
  return o;
}

void group_fanout::deliver_local(core::module_result& result, const core::packet& pkt,
                                 const std::string& group) const {
  auto it = local_members_.find(group);
  if (it == local_members_.end()) return;
  for (core::edge_addr member : it->second) {
    // Do not echo a message back to its own publisher.
    const auto origin = get_skey_u64(pkt.header, skey::origin_addr)
                            .value_or(pkt.header.meta_u64(ilp::meta_key::src_addr).value_or(0));
    if (member == origin) continue;
    core::outbound o;
    o.to = member;
    o.header = pkt.header;
    o.header.flags = ilp::kFlagToHost;
    o.payload = pkt.payload;
    result.sends.push_back(std::move(o));
  }
}

std::optional<core::peer_id> group_fanout::gateway_hop(edomain::edomain_id domain) const {
  const auto gateway = core_.gateway_to(domain);
  if (!gateway) return std::nullopt;
  return gateway->first == self_ ? gateway->second : gateway->first;
}

core::module_result group_fanout::fan_out(core::service_context& ctx, const core::packet& pkt,
                                          const std::string& group) {
  core::module_result result;
  result.verdict = core::decision::deliver();

  switch (classify(pkt)) {
    case role::origin: {
      const auto info = core_.register_sender(group, self_);
      for (core::peer_id sn : info.local_member_sns) {
        if (sn == self_) continue;
        result.sends.push_back(relay_copy(pkt, sn, std::nullopt));
      }
      for (edomain::edomain_id domain : info.remote_member_edomains) {
        const auto hop = gateway_hop(domain);
        if (hop) result.sends.push_back(relay_copy(pkt, *hop, domain));
      }
      deliver_local(result, pkt, group);
      origin_metric_.add(ctx);
      break;
    }
    case role::gateway_transit: {
      const auto target = get_skey_u64(pkt.header, skey::target_domain);
      const auto hop = gateway_hop(static_cast<edomain::edomain_id>(*target));
      if (hop) result.sends.push_back(relay_copy(pkt, *hop, static_cast<edomain::edomain_id>(*target)));
      break;
    }
    case role::gateway_ingress: {
      // Re-fan-out inside this edomain.
      for (core::peer_id sn : core_.member_sns(group)) {
        if (sn == self_) continue;
        result.sends.push_back(relay_copy(pkt, sn, std::nullopt));
      }
      deliver_local(result, pkt, group);
      break;
    }
    case role::relay:
      deliver_local(result, pkt, group);
      break;
  }
  return result;
}

core::module_result group_fanout::deliver_one(core::service_context& ctx, const core::packet& pkt,
                                              const std::string& group) {
  core::module_result result;
  result.verdict = core::decision::deliver();

  const role r = classify(pkt);
  if (r == role::gateway_transit) {
    const auto target = get_skey_u64(pkt.header, skey::target_domain);
    const auto hop = gateway_hop(static_cast<edomain::edomain_id>(*target));
    if (hop) result.sends.push_back(relay_copy(pkt, *hop, static_cast<edomain::edomain_id>(*target)));
    return result;
  }

  // Prefer a local member host ("nearest").
  auto it = local_members_.find(group);
  if (it != local_members_.end() && !it->second.empty()) {
    core::outbound o;
    o.to = *it->second.begin();
    o.header = pkt.header;
    o.header.flags = ilp::kFlagToHost;
    o.payload = pkt.payload;
    result.sends.push_back(std::move(o));
    local_hits_metric_.add(ctx);
    return result;
  }

  if (r == role::relay || r == role::gateway_ingress) {
    // A relay copy found no local member (member left in flight): pick a
    // sibling SN that still has one rather than dropping.
    for (core::peer_id sn : core_.member_sns(group)) {
      if (sn == self_) continue;
      result.sends.push_back(relay_copy(pkt, sn, std::nullopt));
      return result;
    }
    return result;  // nobody left: drop
  }

  // Origin with no local member behind this SN: next preference is a
  // sibling SN in this edomain, then the nearest remote edomain.
  const auto info = core_.register_sender(group, self_);
  for (core::peer_id sn : info.local_member_sns) {
    if (sn == self_) continue;
    result.sends.push_back(relay_copy(pkt, sn, std::nullopt));
    return result;
  }
  for (edomain::edomain_id domain : info.remote_member_edomains) {
    const auto hop = gateway_hop(domain);
    if (hop) {
      result.sends.push_back(relay_copy(pkt, *hop, domain));
      return result;
    }
  }
  return result;  // no members anywhere
}

bytes group_fanout::checkpoint() const {
  writer w;
  w.varint(local_members_.size());
  for (const auto& [group, members] : local_members_) {
    w.str(group);
    w.varint(members.size());
    for (core::edge_addr m : members) w.u64(m);
  }
  return w.take();
}

void group_fanout::restore(const_byte_span state) {
  reader r(state);
  std::map<std::string, std::set<core::edge_addr>> restored;
  const std::uint64_t n_groups = r.varint();
  for (std::uint64_t g = 0; g < n_groups; ++g) {
    std::string group = r.str();
    const std::uint64_t n_members = r.varint();
    auto& members = restored[group];
    for (std::uint64_t m = 0; m < n_members; ++m) members.insert(r.u64());
  }
  local_members_ = std::move(restored);
}

}  // namespace interedge::services
