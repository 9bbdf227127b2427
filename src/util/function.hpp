#pragma once

// Move-only callable wrapper with small-buffer optimization. Unlike
// std::function it never allocates for callables that fit the inline buffer
// (and are nothrow-move-constructible), which makes it suitable for the
// simulator's per-event hot path: a lambda capturing `this` plus a few words
// is stored in place. Larger callables transparently fall back to the heap.
// Like std::function, the call operator is const and invokes the target as
// a non-const lvalue, so a `done(v)` through a const reference or from a
// non-mutable lambda's capture compiles unchanged. An inline target that is
// trivially copyable and destructible (a lambda capturing `this`, indices
// and raw pointers) has no manager: moving it copies the buffer and
// destroying it does nothing, so handing an event callback along the
// scheduling path costs no indirect calls.

#include <cstddef>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace netmon::util {

template <class Signature, std::size_t InlineBytes = 48>
class SmallFunction;

template <class R, class... Args, std::size_t InlineBytes>
class SmallFunction<R(Args...), InlineBytes> {
  static_assert(InlineBytes >= sizeof(void*),
                "inline buffer must hold at least a pointer");

 public:
  SmallFunction() = default;
  SmallFunction(std::nullptr_t) {}  // NOLINT: mirror std::function

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT: converting, like std::function
    construct<D>(std::forward<F>(f));
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFunction> &&
                                     std::is_invocable_r_v<R, D&, Args...>>>
  SmallFunction& operator=(F&& f) {
    reset();
    construct<D>(std::forward<F>(f));
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    if (invoke_ == nullptr) throw std::bad_function_call();
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kMoveTo, kDestroy };

  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* dest);

  template <class F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= InlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  template <class F>
  static constexpr bool trivially_relocatable() {
    return std::is_trivially_copyable_v<F> &&
           std::is_trivially_destructible_v<F>;
  }

  template <class F, bool Inline>
  struct Vtable {
    static F* get(void* s) {
      if constexpr (Inline) {
        return std::launder(reinterpret_cast<F*>(s));
      } else {
        return *std::launder(reinterpret_cast<F**>(s));
      }
    }
    static R invoke(void* s, Args&&... args) {
      return (*get(s))(std::forward<Args>(args)...);
    }
    static void manage(Op op, void* self, void* dest) {
      if constexpr (Inline) {
        F* f = get(self);
        if (op == Op::kMoveTo) ::new (dest) F(std::move(*f));
        f->~F();
      } else {
        if (op == Op::kMoveTo) {
          ::new (dest) (F*)(get(self));  // steal the heap pointer
        } else {
          delete get(self);
        }
      }
    }
  };

  template <class F, class Arg>
  void construct(Arg&& f) {
    if constexpr (fits_inline<F>()) {
      ::new (&storage_) F(std::forward<Arg>(f));
      invoke_ = &Vtable<F, true>::invoke;
      manage_ = trivially_relocatable<F>() ? nullptr
                                           : &Vtable<F, true>::manage;
    } else {
      ::new (&storage_) (F*)(new F(std::forward<Arg>(f)));
      invoke_ = &Vtable<F, false>::invoke;
      manage_ = &Vtable<F, false>::manage;
    }
  }

  void move_from(SmallFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr) {
      std::memcpy(storage_, other.storage_, InlineBytes);
    } else {
      other.manage_(Op::kMoveTo, &other.storage_, &storage_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() {
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) manage_(Op::kDestroy, &storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  // Mutable: the const call operator invokes the stored target non-const,
  // as std::function does.
  alignas(std::max_align_t) mutable unsigned char storage_[InlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  // null for a trivially relocatable target
};

}  // namespace netmon::util
