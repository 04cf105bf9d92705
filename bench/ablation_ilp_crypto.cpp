// Ablation A3: ILP header-protection cost. The ILP design goal is
// "minimal impact on packet latency ... beyond the overheads imposed by
// the service itself" (§4). Measures PSP seal/open, full pipe seal/open
// (header-only encryption, payload untouched), the one-time handshake
// (X25519 + HKDF), and a plaintext-copy baseline for reference.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "crypto/psp.h"
#include "crypto/x25519.h"
#include "ilp/pipe.h"

using namespace interedge;

namespace {

crypto::psp_master_key master() {
  crypto::psp_master_key k;
  k.fill(0x42);
  return k;
}

ilp::ilp_header sample_header() {
  ilp::ilp_header h;
  h.service = ilp::svc::delivery;
  h.connection = 12345;
  h.set_meta_u64(ilp::meta_key::dest_addr, 99);
  return h;
}

// Single-packet PSP seal/open in the scratch-buffer form (pipe::seal_into
// for send() and keepalives, pipe::open), one item per packet.
void BM_PspSeal(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  const bytes plaintext(static_cast<std::size_t>(state.range(0)), 0x5a);
  bytes wire(plaintext.size() + crypto::kPspOverhead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.seal_into(plaintext, {}, wire));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_PspOpen(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  const crypto::psp_context rx(master(), 7);
  const bytes wire = tx.seal(bytes(static_cast<std::size_t>(state.range(0)), 0x5a), {});
  bytes plaintext(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx.open_into(wire, {}, plaintext));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// The same seal for a burst of range(0) packets of range(1) bytes through
// seal_batch (one multi-stream keystream call per burst): items/s is
// per-packet, next to BM_PspSeal's.
void BM_PspSealBatch(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  const auto burst = static_cast<std::size_t>(state.range(0));
  const bytes plaintext(static_cast<std::size_t>(state.range(1)), 0x5a);
  std::vector<bytes> wires(burst, bytes(plaintext.size() + crypto::kPspOverhead));
  std::vector<crypto::psp_seal_job> jobs;
  for (bytes& w : wires) jobs.push_back({tx, plaintext, {}, w});
  crypto::psp_batch_scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::seal_batch(jobs, scratch));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * state.range(1));
}

// One pub/sub publish's egress: range(0) copies of a range(1)-byte header,
// each sealed under its own pipe's context, in one multi-key seal_batch.
// items/s is per copy, next to BM_PspSeal's one-context-per-call figure.
void BM_PspSealMultiKey(benchmark::State& state) {
  const auto copies = static_cast<std::size_t>(state.range(0));
  std::vector<crypto::psp_context> contexts;
  for (std::size_t i = 0; i < copies; ++i) {
    crypto::psp_master_key k;
    k.fill(static_cast<std::uint8_t>(0x40 + i));
    contexts.emplace_back(k, static_cast<std::uint32_t>(7 + i));
  }
  const bytes plaintext(static_cast<std::size_t>(state.range(1)), 0x5a);
  const bytes aad(8, 0x25);  // the pipe's payload-length AAD
  std::vector<bytes> wires(copies, bytes(plaintext.size() + crypto::kPspOverhead));
  std::vector<crypto::psp_seal_job> jobs;
  for (std::size_t i = 0; i < copies; ++i) jobs.push_back({contexts[i], plaintext, aad, wires[i]});
  crypto::psp_batch_scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::seal_batch(jobs, scratch));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// The AEAD's non-ChaCha part for one ILP header seal: the Poly1305 tag
// over a 20-byte AAD (spi || iv || payload length) and range(0) bytes of
// ciphertext, plus the range(0)-byte keystream XOR, given the keystream.
void BM_AeadTag(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const bytes keystream(crypto::aead_keystream_blocks(len) * crypto::kChaChaBlockSize, 0x3c);
  const bytes aad_a(12, 0x11), aad_b(8, 0x22);
  const bytes plaintext(len, 0x5a);
  bytes out(len + crypto::kAeadTagSize);
  for (auto _ : state) {
    crypto::aead_seal_with_keystream(keystream, aad_a, aad_b, plaintext, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}

// Full pipe data path: header sealed, payload carried in clear alongside.
void BM_PipeSealOpen(benchmark::State& state) {
  const bytes secret(32, 0x11);
  ilp::pipe a(secret, 1, 2, true);
  ilp::pipe b(secret, 2, 1, false);
  const ilp::ilp_header header = sample_header();
  const bytes payload(static_cast<std::size_t>(state.range(0)), 0x77);
  for (auto _ : state) {
    const bytes wire = a.seal(header, payload);
    benchmark::DoNotOptimize(b.open(const_byte_span(wire).subspan(1)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// Baseline: what moving the same bytes costs with no protection at all.
void BM_PlaintextCopyBaseline(benchmark::State& state) {
  const bytes payload(static_cast<std::size_t>(state.range(0)), 0x77);
  bytes sink(payload.size());
  for (auto _ : state) {
    std::memcpy(sink.data(), payload.data(), payload.size());
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// One-time costs: the pipe-establishment handshake crypto and a key epoch
// rotation ("ILP adds no additional latency when establishing a
// connection" because this happens once per element pair, not per
// connection).
void BM_HandshakeX25519(benchmark::State& state) {
  crypto::x25519_key seed_a{}, seed_b{};
  seed_a[0] = 1;
  seed_b[0] = 2;
  const auto a = crypto::x25519_keypair_from_seed(seed_a);
  const auto b = crypto::x25519_keypair_from_seed(seed_b);
  for (auto _ : state) {
    const auto shared = crypto::x25519(a.secret, b.public_key);
    benchmark::DoNotOptimize(
        crypto::hkdf({}, const_byte_span(shared.data(), shared.size()), to_bytes("dir"), 64));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_KeyRotation(benchmark::State& state) {
  crypto::psp_context tx(master(), 7);
  for (auto _ : state) {
    tx.rotate();
    benchmark::DoNotOptimize(tx.current_spi());
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

// Header sizes: 37 B is a delivery header with source and destination
// addresses; 37 and 64 B take 2 keystream blocks, 100 B takes 3, and 256
// and 1400 B run past the 192-byte head of a single AEAD call.
BENCHMARK(BM_PspSeal)->Arg(37)->Arg(64)->Arg(100)->Arg(256)->Arg(1400);
BENCHMARK(BM_PspOpen)->Arg(37)->Arg(64)->Arg(100)->Arg(256)->Arg(1400);
BENCHMARK(BM_PspSealBatch)->Args({32, 37})->Args({32, 64})->Args({32, 100});
BENCHMARK(BM_PspSealMultiKey)->Args({16, 37});
BENCHMARK(BM_AeadTag)->Arg(37);
BENCHMARK(BM_PipeSealOpen)->Arg(64)->Arg(512)->Arg(1400);
BENCHMARK(BM_PlaintextCopyBaseline)->Arg(64)->Arg(512)->Arg(1400);
BENCHMARK(BM_HandshakeX25519);
BENCHMARK(BM_KeyRotation);

BENCHMARK_MAIN();
