#include "util/arena.hpp"

#include <algorithm>
#include <atomic>
#include <new>

#include "util/thread_annotations.hpp"

namespace util {

Arena::Alloc Arena::allocate_slow(std::size_t n) {
  // The current chunk's bump is exhausted (or no chunk exists).  Recycle
  // the first chunk whose consumers have all released it — starting with
  // the *current* chunk, whose cache lines are the warmest (the steady
  // one-payload-per-chunk pipeline rewinds in place) — and grow only when
  // no chunk is free.  The acquire load pairs with release(): once it
  // reads zero, every consumer's last read of the chunk's bytes
  // happened-before this thread reuses them.
  const std::size_t nchunks = chunks_.size();
  for (std::size_t step = 0; step < nchunks; ++step) {
    const std::size_t i = (cur_ + step) % nchunks;
    Chunk* c = chunks_[i].get();
    if (c->size >= n && c->live.load(std::memory_order_acquire) == 0) {
      cur_ = i;
      used_ = n;
      ++stats_.recycles;
      c->live.fetch_add(1, std::memory_order_relaxed);
      return {c->mem.get(), c};
    }
  }
  const std::size_t size = std::max(chunk_bytes_, n);
  auto chunk = std::make_unique<Chunk>();
  chunk->mem = std::make_unique_for_overwrite<std::byte[]>(size);
  chunk->size = size;
  chunks_.push_back(std::move(chunk));
  cur_ = chunks_.size() - 1;
  used_ = n;
  ++stats_.chunks;
  stats_.capacity_bytes += size;
  Chunk* c = chunks_[cur_].get();
  c->live.fetch_add(1, std::memory_order_relaxed);
  return {c->mem.get(), c};
}

void Arena::reset() {
  for (auto& c : chunks_) c->live.store(0, std::memory_order_relaxed);
  cur_ = 0;
  used_ = 0;
}

bool Arena::clean() const {
  for (const auto& c : chunks_)
    if (c->live.load(std::memory_order_acquire) != 0) return false;
  return true;
}

namespace {

// ---- coroutine frame pool -------------------------------------------------
//
// Size classes: 64-byte steps up to 1 KiB, then powers of two up to 32 KiB.
// Anything larger goes straight to ::operator new (no such frame exists in
// this codebase; the fallback just keeps the pool correct for any input).

constexpr std::size_t kStep = 64;
constexpr std::size_t kLinearMax = 1024;
constexpr std::size_t kPow2Max = 32 * 1024;
constexpr int kLinearBuckets = static_cast<int>(kLinearMax / kStep);  // 16
constexpr int kNumBuckets = kLinearBuckets + 6;  // 2K,4K,8K,16K,32K + spare

/// Bucket index for a request size, or -1 for oversized requests.
int bucket_of(std::size_t n) {
  if (n <= kLinearMax)
    return static_cast<int>((n + kStep - 1) / kStep) - (n == 0 ? 0 : 1);
  if (n > kPow2Max) return -1;
  int b = kLinearBuckets;
  std::size_t cap = 2 * kLinearMax;
  while (n > cap) {
    cap <<= 1;
    ++b;
  }
  return b;
}

/// Allocation size of a bucket (inverse of bucket_of).
std::size_t bucket_bytes(int b) {
  if (b < kLinearBuckets) return static_cast<std::size_t>(b + 1) * kStep;
  return (2 * kLinearMax) << (b - kLinearBuckets);
}

/// Free blocks are chained through their first pointer-sized bytes.
struct FreeNode {
  FreeNode* next;
};

std::atomic<std::uint64_t> g_mallocs{0};
std::atomic<std::uint64_t> g_reuses{0};

/// Process-wide overflow lists.  Leaked intentionally (function-local
/// static pointer): per-thread caches drain here from thread-exit
/// destructors, which may run arbitrarily late.
struct Reservoir {
  Mutex mu;
  FreeNode* head[kNumBuckets] GUARDED_BY(mu) = {};
};

Reservoir& reservoir() {
  // lint:allow(naked-new) intentional leak: thread-exit destructors of
  // ThreadCache drain here arbitrarily late, after any static would die.
  static Reservoir* r = new Reservoir;
  return *r;
}

/// Per-thread cache.  Hot path is a push/pop on a singly-linked list; the
/// reservoir is touched only on a miss (at most half a cache is refilled),
/// on overflow past kCacheCap (half the list is flushed), and at thread
/// exit (everything is drained, so blocks survive the per-run worker
/// threads of the engine's pool).
struct ThreadCache {
  static constexpr int kCacheCap = 64;
  FreeNode* head[kNumBuckets] = {};
  int count[kNumBuckets] = {};

  ~ThreadCache() {
    Reservoir& r = reservoir();
    MutexLock lk(r.mu);
    for (int b = 0; b < kNumBuckets; ++b) {
      while (head[b]) {
        FreeNode* n = head[b];
        head[b] = n->next;
        n->next = r.head[b];
        r.head[b] = n;
      }
    }
  }

  void* pop(int b) {
    if (head[b]) {
      FreeNode* n = head[b];
      head[b] = n->next;
      --count[b];
      return n;
    }
    // Miss: refill at most half a cache from the reservoir.  Taking the
    // whole list would let one of the engine's per-run workers hoard every
    // pooled block while its siblings allocate afresh, and their exit
    // drains would grow the pool on every run.
    Reservoir& r = reservoir();
    {
      MutexLock lk(r.mu);
      while (r.head[b] && count[b] < kCacheCap / 2) {
        FreeNode* n = r.head[b];
        r.head[b] = n->next;
        n->next = head[b];
        head[b] = n;
        ++count[b];
      }
    }
    if (head[b]) {
      FreeNode* n = head[b];
      head[b] = n->next;
      --count[b];
      return n;
    }
    return nullptr;
  }

  void push(int b, void* p) {
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = head[b];
    head[b] = n;
    if (++count[b] > kCacheCap) {
      // Flush half to the reservoir so blocks freed here are visible to
      // allocating threads without waiting for thread exit.
      Reservoir& r = reservoir();
      MutexLock lk(r.mu);
      for (int i = 0; i < kCacheCap / 2; ++i) {
        FreeNode* f = head[b];
        head[b] = f->next;
        f->next = r.head[b];
        r.head[b] = f;
        --count[b];
      }
    }
  }
};

ThreadCache& cache() {
  static thread_local ThreadCache c;
  return c;
}

}  // namespace

void* frame_alloc(std::size_t n) {
  const int b = bucket_of(n);
  if (b < 0) {
    g_mallocs.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(n);
  }
  if (void* p = cache().pop(b)) {
    g_reuses.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  g_mallocs.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(bucket_bytes(b));
}

void frame_free(void* p, std::size_t n) noexcept {
  const int b = bucket_of(n);
  if (b < 0) {
    ::operator delete(p);
    return;
  }
  cache().push(b, p);
}

std::uint64_t frame_pool_mallocs() {
  return g_mallocs.load(std::memory_order_relaxed);
}

std::uint64_t frame_pool_reuses() {
  return g_reuses.load(std::memory_order_relaxed);
}

}  // namespace util
