/**
 * @file
 * InlineFunction: a move-only callable wrapper with a fixed inline capture
 * buffer, built for the event-queue hot path.
 *
 * std::function heap-allocates any capture larger than its tiny SBO
 * (16 bytes on libstdc++), which puts a malloc/free pair on the critical
 * path of every scheduled event.  InlineFunction stores captures up to
 * `Capacity` bytes directly inside the object — the event queue's slab
 * then holds the whole closure by value and scheduling allocates nothing.
 *
 * Oversized captures still work: they spill to a thread-local slab pool
 * (power-of-two size classes, freelist-recycled), so even the fallback
 * path avoids the general-purpose allocator after warmup.  The pool is
 * thread-local on purpose — each SweepRunner worker drives its own
 * EventQueue, and lock-free-by-construction beats lock-free-by-cleverness.
 *
 * Only what the event queue needs is implemented: construct from a
 * callable, move, invoke, destroy.  No copy (events fire once; captures
 * may hold move-only state), no allocator hooks, no target_type().
 */

#ifndef SW_SIM_INLINE_FUNCTION_HH
#define SW_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace sw {

namespace detail {

/**
 * Thread-local freelist allocator for captures that do not fit inline.
 * Blocks are rounded to a power-of-two class and recycled forever; the
 * per-thread arena is released when the thread exits.  Requests beyond
 * the largest class fall through to operator new.
 */
class SlabPool
{
  public:
    static void *
    allocate(std::size_t bytes)
    {
        int cls = classOf(bytes);
        if (cls < 0)
            return ::operator new(bytes);
        Arena &arena = local();
        Node *&head = arena.free[cls];
        if (head) {
            Node *node = head;
            head = node->next;
            return node;
        }
        return ::operator new(std::size_t(1) << (kMinShift + cls));
    }

    static void
    deallocate(void *ptr, std::size_t bytes)
    {
        if (!ptr)
            return;
        int cls = classOf(bytes);
        if (cls < 0) {
            ::operator delete(ptr);
            return;
        }
        Arena &arena = local();
        Node *node = static_cast<Node *>(ptr);
        node->next = arena.free[cls];
        arena.free[cls] = node;
    }

    /** Blocks currently parked on this thread's freelists (tests). */
    static std::size_t
    freeBlocks()
    {
        std::size_t n = 0;
        for (Node *node : local().free)
            for (; node; node = node->next)
                ++n;
        return n;
    }

  private:
    static constexpr int kMinShift = 6;    ///< smallest class: 64 bytes
    static constexpr int kNumClasses = 5;  ///< 64..1024 bytes

    struct Node
    {
        Node *next;
    };

    struct Arena
    {
        Node *free[kNumClasses] = {};

        ~Arena()
        {
            for (Node *&head : free) {
                while (head) {
                    Node *node = head;
                    head = node->next;
                    ::operator delete(node);
                }
            }
        }
    };

    /** Size class index for @p bytes, or -1 for "use operator new". */
    static int
    classOf(std::size_t bytes)
    {
        std::size_t size = std::size_t(1) << kMinShift;
        for (int cls = 0; cls < kNumClasses; ++cls, size <<= 1) {
            if (bytes <= size)
                return cls;
        }
        return -1;
    }

    static Arena &
    local()
    {
        static thread_local Arena arena;
        return arena;
    }
};

} // namespace detail

template <typename Sig, std::size_t Capacity>
class InlineFunction; // undefined; only the R(Args...) partial below exists

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    static constexpr std::size_t capacity() { return Capacity; }

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFunction(F &&f)
    {
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            invoke_ = &inlineInvoke<Fn>;
            manage_ = &inlineManage<Fn>;
        } else {
            void *mem = detail::SlabPool::allocate(sizeof(Fn));
            Fn *obj = ::new (mem) Fn(std::forward<F>(f));
            std::memcpy(buf, &obj, sizeof obj);
            invoke_ = &heapInvoke<Fn>;
            manage_ = &heapManage<Fn>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        SW_ASSERT(invoke_ != nullptr, "empty InlineFunction invoked");
        return invoke_(buf, std::forward<Args>(args)...);
    }

    /** True when the capture spilled to the slab pool (tests/benches). */
    bool
    onHeap() const noexcept
    {
        if (!manage_)
            return false;
        bool heap = false;
        manage_(const_cast<unsigned char *>(buf), &heap, Op::QueryHeap);
        return heap;
    }

    /** Whether a callable of type @p Fn would be stored inline. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Capacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    enum class Op
    {
        MoveTo,     ///< move-construct into dest, destroy source
        Destroy,    ///< destroy source
        QueryHeap,  ///< write bool "lives on the slab" into dest
    };

    using InvokeFn = R (*)(void *, Args &&...);
    using ManageFn = void (*)(void *self, void *dest, Op op);

    template <typename Fn>
    static R
    inlineInvoke(void *storage, Args &&...args)
    {
        return (*static_cast<Fn *>(storage))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    inlineManage(void *self, void *dest, Op op)
    {
        Fn *obj = static_cast<Fn *>(self);
        switch (op) {
          case Op::MoveTo:
            ::new (dest) Fn(std::move(*obj));
            obj->~Fn();
            break;
          case Op::Destroy:
            obj->~Fn();
            break;
          case Op::QueryHeap:
            *static_cast<bool *>(dest) = false;
            break;
        }
    }

    template <typename Fn>
    static R
    heapInvoke(void *storage, Args &&...args)
    {
        Fn *obj;
        std::memcpy(&obj, storage, sizeof obj);
        return (*obj)(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    heapManage(void *self, void *dest, Op op)
    {
        Fn *obj;
        std::memcpy(&obj, self, sizeof obj);
        switch (op) {
          case Op::MoveTo:
            // The capture stays put; only the pointer changes hands.
            std::memcpy(dest, &obj, sizeof obj);
            break;
          case Op::Destroy:
            obj->~Fn();
            detail::SlabPool::deallocate(obj, sizeof(Fn));
            break;
          case Op::QueryHeap:
            *static_cast<bool *>(dest) = true;
            break;
        }
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (other.invoke_) {
            other.manage_(other.buf, buf, Op::MoveTo);
            invoke_ = other.invoke_;
            manage_ = other.manage_;
            other.invoke_ = nullptr;
            other.manage_ = nullptr;
        }
    }

    void
    destroy() noexcept
    {
        if (manage_) {
            manage_(buf, nullptr, Op::Destroy);
            invoke_ = nullptr;
            manage_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[Capacity];
    InvokeFn invoke_ = nullptr;
    ManageFn manage_ = nullptr;
};

} // namespace sw

#endif // SW_SIM_INLINE_FUNCTION_HH
