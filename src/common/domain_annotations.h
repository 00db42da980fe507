// Compile-time gate for cross-domain message payloads.
//
// The sharded harness (src/harness/sharded_testbed.*) partitions one
// deployment into conservative-lookahead event domains that may run on
// different worker threads. Its correctness contract — bitwise-identical
// reports at any shard count — holds only while every piece of mutable state
// is touched by exactly one domain, and everything crossing a boundary goes
// through a per-epoch channel (src/sim/epoch_channel.h) as an owned value.
// Domain state itself is held by plain std::unique_ptr members of the
// domain's slice.
//
//   CEIO_DOMAIN_MESSAGE(T)  declares T a channel payload: an owned value
//                     that is safe to hand to another domain. Statically
//                     rejects payloads that carry raw pointers or references
//                     outright (a pointer in a payload aliases the producing
//                     domain's state from the consuming one).
//
// The cross-domain rule of tools/lint/ceio_lint.py leans on this gate: it
// flags raw pointer/reference members of any CEIO_DOMAIN_MESSAGE type and
// pointer/reference EpochChannel payload types, either of which would alias
// the producing domain's state from the consuming one.
#pragma once

#include <type_traits>

namespace ceio {

/// Trait gate for EpochChannel payloads. Types opt in via
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

/// Declares `TYPE` safe to ship through a cross-domain channel. Place at
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
