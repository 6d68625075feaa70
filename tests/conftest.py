import tracemalloc


def peak_bytes(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` with tracemalloc on; return its result
    and the peak of the memory traced during the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
