/**
 * @file
 * Small-buffer move-only callable for event-queue hot paths.
 *
 * `std::function` heap-allocates any capture larger than two words,
 * which on the event-queue hot path means one malloc/free per
 * scheduled burst (NIC transmit, switch forward and NIC receive each
 * capture a whole net::Burst by value).  SmallFn keeps captures up to
 * `kInlineBytes` inline in the event node itself — nodes come from
 * the queue's arena, so the common case schedules with zero heap
 * traffic.  Oversized captures still work (they fall back to one heap
 * cell), they just lose the fast path; hot call sites pin themselves
 * to the inline path with `static_assert(SmallFn::fitsInline<F>())`.
 */

#ifndef IOAT_SIMCORE_SMALLFN_HH
#define IOAT_SIMCORE_SMALLFN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ioat::sim {

/**
 * Move-only `void()` callable with inline storage.
 *
 * Unlike `std::function` it is not copyable and never type-erases
 * through a separate heap control block for small captures; the
 * dispatch table is one static pointer per lambda type.
 */
class SmallFn
{
  public:
    /**
     * Inline capture capacity: 128 bytes fits a [this, net::Burst]
     * capture.  The buffer is max_align_t-aligned, so the object is
     * 144 bytes either way (8 for the ops pointer, padded to 16).
     */
    static constexpr std::size_t kInlineBytes = 128;

    /** True when a callable of type @p F is stored without boxing. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using Fn = std::decay_t<F>;
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t);
    }

    SmallFn() = default;

    /** Matches std::function: a null callable is simply empty. */
    SmallFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn>>>
    SmallFn(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    SmallFn(SmallFn &&o) noexcept { moveFrom(o); }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the held callable (if any). */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(&buf_);
            ops_ = nullptr;
        }
    }

    /** Construct a callable in place, destroying any previous one. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(&buf_)) Fn(std::forward<F>(fn));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<void **>(&buf_) =
                // simlint: allow(raw-new) oversized-callable fallback
                new Fn(std::forward<F>(fn));
            ops_ = &boxedOps<Fn>;
        }
    }

    /** Invoke.  Undefined when empty (callers check or know). */
    void operator()() { ops_->call(&buf_); }

  private:
    struct Ops
    {
        void (*call)(void *);
        void (*destroy)(void *);
        void (*move)(void *dst, void *src);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
        [](void *dst, void *src) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops boxedOps = {
        [](void *p) { (**reinterpret_cast<Fn **>(p))(); },
        // simlint: allow(raw-new) oversized-callable fallback
        [](void *p) { delete *reinterpret_cast<Fn **>(p); },
        [](void *dst, void *src) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
    };

    void
    moveFrom(SmallFn &o)
    {
        ops_ = o.ops_;
        if (ops_) {
            ops_->move(&buf_, &o.buf_);
            o.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

// The ops pointer takes one alignment unit ahead of the buffer; with
// kInlineBytes a multiple of that unit there is no tail padding, so
// every byte an event node spends on its SmallFn can hold a capture.
static_assert(sizeof(SmallFn) ==
              SmallFn::kInlineBytes + alignof(std::max_align_t));

} // namespace ioat::sim

#endif // IOAT_SIMCORE_SMALLFN_HH
