// Randomized robustness: every wire-format decoder must survive arbitrary
// bytes — either parse successfully or fail cleanly (serial_error /
// nullopt), never crash or read out of bounds. These are the inputs a
// malicious peer controls.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/channel.h"
#include "crypto/psp.h"
#include "ilp/header.h"
#include "ilp/pipe.h"
#include "ilp/pipe_manager.h"
#include "services/envelope.h"
#include "services/qos.h"
#include "tunnel/tunnel.h"

namespace interedge {
namespace {

bytes random_bytes_of(rng& r, std::size_t max_len) {
  bytes b(r.below(max_len + 1));
  r.fill(b);
  return b;
}

template <typename Fn>
void fuzz(std::uint64_t seed, int iterations, std::size_t max_len, Fn&& attempt) {
  rng r(seed);
  for (int i = 0; i < iterations; ++i) {
    const bytes input = random_bytes_of(r, max_len);
    attempt(const_byte_span(input));
  }
}

TEST(DecodeFuzz, IlpHeaderNeverCrashes) {
  int parsed = 0;
  fuzz(1, 2000, 200, [&](const_byte_span in) {
    try {
      auto h = ilp::ilp_header::decode(in);
      ++parsed;
      // Whatever parsed must re-encode and re-parse identically.
      EXPECT_EQ(ilp::ilp_header::decode(h.encode()), h);
    } catch (const serial_error&) {
    }
  });
  // Some random inputs will parse (headers are compact); that is fine.
  SUCCEED() << parsed << " random inputs parsed";
}

TEST(DecodeFuzz, SlowpathRequestNeverCrashes) {
  fuzz(2, 2000, 300, [&](const_byte_span in) {
    try {
      core::packet storage;
      auto req = core::slowpath_request::decode(in, storage);
      EXPECT_EQ(req.pkt, &storage);
    } catch (const serial_error&) {
    }
  });
}

TEST(DecodeFuzz, SlowpathResponseNeverCrashes) {
  fuzz(3, 2000, 300, [&](const_byte_span in) {
    try {
      auto resp = core::slowpath_response::decode(in);
      (void)resp;
    } catch (const serial_error&) {
    }
  });
}

TEST(DecodeFuzz, QosProfileNeverCrashes) {
  fuzz(4, 2000, 200, [&](const_byte_span in) {
    try {
      auto p = services::qos_profile::decode(in);
      (void)p;
    } catch (const serial_error&) {
    }
  });
}

TEST(DecodeFuzz, PspOpenRejectsGarbage) {
  crypto::psp_master_key master;
  master.fill(0x42);
  const crypto::psp_context rx(master, 7);
  fuzz(5, 2000, 200, [&](const_byte_span in) {
    EXPECT_FALSE(rx.open(in, {}).has_value());
  });
}

TEST(DecodeFuzz, PipeOpenRejectsGarbage) {
  const bytes secret(32, 0x31);
  ilp::pipe p(secret, 1, 2, true);
  fuzz(6, 2000, 300, [&](const_byte_span in) {
    EXPECT_FALSE(p.open(in).has_value());
  });
}

TEST(DecodeFuzz, PipeManagerSurvivesGarbageDatagrams) {
  int delivered = 0;
  ilp::pipe_manager mgr(
      1, [](ilp::peer_id, bytes) {},
      [&delivered](ilp::peer_id, const ilp::ilp_header&, bytes) { ++delivered; });
  fuzz(7, 2000, 300, [&](const_byte_span in) { mgr.on_datagram(99, in); });
  // No garbage frame may ever surface as application data. (Pipes MAY be
  // created: a well-formed random handshake init is indistinguishable
  // from a genuine unauthenticated first contact — the resulting pipe can
  // never authenticate a data packet.)
  EXPECT_EQ(delivered, 0);
}

TEST(DecodeFuzz, EnvelopeOpenRejectsGarbage) {
  crypto::x25519_key seed;
  seed.fill(9);
  const auto kp = crypto::x25519_keypair_from_seed(seed);
  fuzz(8, 500, 200, [&](const_byte_span in) {
    EXPECT_FALSE(services::envelope_open(kp.secret, in).has_value());
  });
}

TEST(DecodeFuzz, TunnelHandshakeRejectsGarbage) {
  crypto::x25519_key sa, sb;
  sa.fill(1);
  sb.fill(2);
  tunnel::tunnel_endpoint ep(crypto::x25519_keypair_from_seed(sa),
                             crypto::x25519_keypair_from_seed(sb).public_key);
  rng r(9);
  // Exactly-sized random initiations must be rejected (wrong MACs/seals),
  // and wrong-size input must be rejected outright.
  for (int i = 0; i < 200; ++i) {
    bytes exact(tunnel::kInitiationSize);
    r.fill(exact);
    EXPECT_FALSE(ep.consume_initiation(exact).has_value());
    bytes wrong(r.below(400));
    if (wrong.size() == tunnel::kInitiationSize) wrong.push_back(0);
    r.fill(wrong);
    EXPECT_FALSE(ep.consume_initiation(wrong).has_value());
  }
}

TEST(DecodeFuzz, ReaderNeverOverreads) {
  // Property: any sequence of reader operations on random input either
  // succeeds within bounds or throws serial_error.
  rng r(10);
  for (int i = 0; i < 2000; ++i) {
    const bytes input = random_bytes_of(r, 64);
    reader rd(input);
    try {
      while (!rd.done()) {
        switch (r.below(5)) {
          case 0: rd.u8(); break;
          case 1: rd.u16(); break;
          case 2: rd.u32(); break;
          case 3: rd.varint(); break;
          case 4: rd.blob(); break;
        }
        ASSERT_LE(rd.position(), input.size());
      }
    } catch (const serial_error&) {
    }
  }
}

// Flip every single bit of a valid sealed pipe message: every mutation
// must be rejected (header protection is all-or-nothing).
TEST(DecodeFuzz, PipeBitFlipExhaustive) {
  const bytes secret(32, 0x44);
  ilp::pipe a(secret, 1, 2, true);
  ilp::pipe b(secret, 2, 1, false);
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = 5;
  const bytes wire = a.seal(h, to_bytes("pp"));
  const const_byte_span body = const_byte_span(wire).subspan(1);

  // Find the payload offset: everything before it is protected.
  // (Payload bytes themselves are intentionally NOT protected by the pipe.)
  const std::size_t payload_offset = wire.size() - 2;
  for (std::size_t byte = 1; byte < payload_offset; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes mutated(wire);
      mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
      const auto opened = b.open(const_byte_span(mutated).subspan(1));
      if (opened) {
        // The only acceptable parse is one that still authenticated — the
        // mutation must have hit the length prefix in a way that still
        // frames the identical sealed header, which cannot happen for a
        // single bit flip inside it.
        ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit << " was accepted";
      }
    }
  }
  // Sanity: the unmutated message still opens.
  EXPECT_TRUE(b.open(body).has_value());
}

}  // namespace
}  // namespace interedge
