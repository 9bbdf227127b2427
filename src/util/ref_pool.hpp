#pragma once

// Pool of reference-counted slots handed out as pointer-sized, copyable
// handles. The count is intrusive and non-atomic (the simulator is
// single-threaded), so copying a handle costs one increment — unlike a
// shared_ptr, whose control block is a separate allocation and whose count
// is atomic. Slots live in fixed chunks with stable addresses and recycle
// through a free list, so a warmed-up pool never touches the allocator.
//
// The pool's owner may die before its outstanding handles (a Done callback
// held past its scheduler, a job held by a sensor that outlives its
// director). The slot storage then stays alive, detached, until the last
// handle drops; Ref::pool_alive() reports false from the moment the owner
// is gone, and the last-reference hook no longer runs.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace netmon::util {

template <class T>
class RefPool {
  struct Arena;
  struct Slot {
    T value{};
    std::uint32_t refs = 0;
    Arena* arena = nullptr;
    Slot* next_free = nullptr;
  };

 public:
  // Runs when the last handle of a slot drops while the pool is alive,
  // before the slot's value is reset and the slot recycled.
  using LastRefHook = void (*)(T&);

  class Ref {
   public:
    Ref() = default;
    Ref(const Ref& o) noexcept : slot_(o.slot_) {
      if (slot_ != nullptr) ++slot_->refs;
    }
    Ref(Ref&& o) noexcept : slot_(std::exchange(o.slot_, nullptr)) {}
    Ref& operator=(Ref o) noexcept {
      std::swap(slot_, o.slot_);
      return *this;
    }
    ~Ref() { reset(); }

    void reset() {
      Slot* s = std::exchange(slot_, nullptr);
      if (s != nullptr && --s->refs == 0) s->arena->release(s);
    }

    T* get() const { return slot_ != nullptr ? &slot_->value : nullptr; }
    T& operator*() const { return slot_->value; }
    T* operator->() const { return &slot_->value; }
    explicit operator bool() const { return slot_ != nullptr; }
    // False for a null handle and once the owning pool has been destroyed.
    bool pool_alive() const {
      return slot_ != nullptr && !slot_->arena->orphaned;
    }

   private:
    friend class RefPool;
    explicit Ref(Slot* s) : slot_(s) {}
    Slot* slot_ = nullptr;
  };

  explicit RefPool(LastRefHook on_last_ref = nullptr) : arena_(new Arena) {
    arena_->on_last_ref = on_last_ref;
  }
  RefPool(const RefPool&) = delete;
  RefPool& operator=(const RefPool&) = delete;
  ~RefPool() {
    arena_->orphaned = true;
    if (arena_->live == 0) delete arena_;
  }

  // A slot holding a default-constructed T, with one reference.
  Ref acquire() {
    Arena& a = *arena_;
    Slot* s = a.free;
    if (s != nullptr) {
      a.free = s->next_free;
    } else {
      if (a.chunk_used == kChunk) {
        a.chunks.push_back(std::make_unique<Slot[]>(kChunk));
        a.chunk_used = 0;
      }
      s = &a.chunks.back()[a.chunk_used++];
      s->arena = arena_;
    }
    s->refs = 1;
    ++a.live;
    return Ref(s);
  }

  // Slots with at least one live handle.
  std::size_t live() const { return arena_->live; }

 private:
  static constexpr std::size_t kChunk = 64;

  // Shared by the pool and every outstanding handle; deletes itself when
  // the pool is gone and the last handle has dropped.
  struct Arena {
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::size_t chunk_used = kChunk;
    Slot* free = nullptr;
    std::size_t live = 0;
    bool orphaned = false;
    LastRefHook on_last_ref = nullptr;

    void release(Slot* s) {
      if (!orphaned && on_last_ref != nullptr) on_last_ref(s->value);
      s->value = T{};
      s->next_free = free;
      free = s;
      if (--live == 0 && orphaned) delete this;
    }
  };

  Arena* arena_;
};

}  // namespace netmon::util
