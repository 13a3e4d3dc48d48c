#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace {

// Plain thread-locals: zero-initialised, no constructor, so counting is
// safe from the first allocation of every thread and never contends.
thread_local std::uint64_t tCount = 0;
thread_local std::uint64_t tBytes = 0;

void *
countedAlloc(std::size_t size)
{
    ++tCount;
    tBytes += size;
    return std::malloc(size ? size : 1);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++tCount;
    tBytes += size;
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = (size + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded ? rounded : alignment);
}

void *
orThrow(void *ptr)
{
    if (!ptr)
        throw std::bad_alloc();
    return ptr;
}

} // namespace

namespace perfbench {

AllocCount
threadAllocs()
{
    return {tCount, tBytes};
}

} // namespace perfbench

void *operator new(std::size_t size) { return orThrow(countedAlloc(size)); }
void *operator new[](std::size_t size) { return orThrow(countedAlloc(size)); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *ptr) noexcept { std::free(ptr); }
void operator delete[](void *ptr) noexcept { std::free(ptr); }
void operator delete(void *ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void *ptr, std::size_t) noexcept { std::free(ptr); }

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void operator delete(void *ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void *ptr, std::align_val_t) noexcept { std::free(ptr); }

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
