// Non-owning reference to a callable: a pointer to the callable plus a
// trampoline, two words, no allocation, no copy of the target.
//
// The per-grid-point Newton solve calls its residual and Jacobian callbacks
// thousands of times per time-iteration step; std::function would
// heap-allocate each capturing lambda per point solve, this never does. Like
// std::string_view, a function_ref must not outlive what it refers to — bind
// it to a named callable (`const auto f = [..]{..}; solve(f, ..)`), never
// store one built from a temporary lambda.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace hddm::util {

template <class Signature>
class function_ref;

template <class R, class... Args>
class function_ref<R(Args...)> {
 public:
  /// An empty reference (operator bool is false; calling it is undefined).
  function_ref() = default;

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, function_ref> &&
             std::is_invocable_r_v<R, F&, Args...>)
  function_ref(F&& f) noexcept  // implicit, like std::function's
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return std::invoke(*static_cast<std::remove_reference_t<F>*>(object),
                             std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* object_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace hddm::util
