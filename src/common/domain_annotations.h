// Compile-time annotations for sharded-domain state ownership.
//
// The sharded harness (src/harness/sharded_testbed.*) partitions one
// deployment into conservative-lookahead event domains that may run on
// different worker threads. Its correctness contract — bitwise-identical
// reports at any shard count — holds only while every piece of mutable state
// is touched by exactly one domain, and everything crossing a boundary goes
// through an SPSC mailbox as an owned value. Nothing in plain C++ marks that
// ownership, so a refactor can silently leak a mutable reference across a
// boundary; TSan only catches the leak on paths a test actually races.
//
// These wrappers make the ownership explicit in the type system:
//
//   DomainLocal<T>    state owned by one event domain. Move-only (a copy
//                     would silently fork domain state) and heap-backed, so
//                     moving the owner never invalidates event callbacks
//                     holding the address. Accessors mirror std::unique_ptr.
//
//   CEIO_DOMAIN_MESSAGE(T)  declares T a mailbox payload: an owned value
//                     that is safe to hand to another domain. Statically
//                     rejects payloads that carry raw pointers or references
//                     outright (a pointer in a payload aliases the producing
//                     domain's state from the consuming one).
//
// The cross-domain rule of tools/lint/ceio_lint.py leans on these types: it
// flags raw pointer/reference members of any CEIO_DOMAIN_MESSAGE type and
// pointer/reference SpscMailbox payload types, either of which would alias
// the producing domain's state from the consuming one.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace ceio {

/// State owned by exactly one event domain. Move-only and heap-backed:
/// the owning object may move (vector growth, struct reshuffles) without
/// invalidating pointers that in-flight event callbacks hold.
template <typename T>
class DomainLocal {
 public:
  DomainLocal() = default;
  explicit DomainLocal(T value) : ptr_(std::make_unique<T>(std::move(value))) {}

  DomainLocal(DomainLocal&&) noexcept = default;
  DomainLocal& operator=(DomainLocal&&) noexcept = default;
  DomainLocal(const DomainLocal&) = delete;  // a copy would fork domain state
  DomainLocal& operator=(const DomainLocal&) = delete;

  /// Constructs the owned value in place (replacing any previous one).
  template <typename... Args>
  T& emplace(Args&&... args) {
    ptr_ = std::make_unique<T>(std::forward<Args>(args)...);
    return *ptr_;
  }

  void reset() { ptr_.reset(); }

  T* get() { return ptr_.get(); }
  const T* get() const { return ptr_.get(); }
  T& operator*() { return *ptr_; }
  const T& operator*() const { return *ptr_; }
  T* operator->() { return ptr_.get(); }
  const T* operator->() const { return ptr_.get(); }
  explicit operator bool() const { return static_cast<bool>(ptr_); }

 private:
  std::unique_ptr<T> ptr_;
};

/// Trait gate for SpscMailbox payloads. Types opt in via
/// CEIO_DOMAIN_MESSAGE(T), which also runs the compile-time safety checks.
template <typename T>
struct is_domain_message : std::false_type {};

template <typename T>
inline constexpr bool is_domain_message_v = is_domain_message<T>::value;

// Arithmetic payloads (tests, counters) are trivially safe owned values.
template <typename T>
  requires std::is_arithmetic_v<T>
struct is_domain_message<T> : std::true_type {};

}  // namespace ceio

/// Declares `TYPE` safe to ship through a cross-domain mailbox. Place at
/// GLOBAL namespace scope, after the type's definition (the explicit
/// specialization of ceio::is_domain_message must live in an enclosing
/// namespace of ceio). The payload must be an owned value: movable, and not
/// itself a pointer (members are audited by the cross-domain rule of
/// tools/lint/ceio_lint.py, which flags raw pointer/reference fields in any
/// CEIO_DOMAIN_MESSAGE type).
#define CEIO_DOMAIN_MESSAGE(TYPE)                                           \
  static_assert(std::is_move_constructible_v<TYPE>,                         \
                #TYPE " must be movable to cross a domain boundary");       \
  static_assert(!std::is_pointer_v<TYPE> && !std::is_reference_v<TYPE>,     \
                #TYPE " aliases domain state; ship an owned value");        \
  namespace ceio {                                                          \
  template <>                                                               \
  struct is_domain_message<TYPE> : std::true_type {};                       \
  }                                                                         \
  static_assert(true, "")  /* force a trailing semicolon at the call site */
