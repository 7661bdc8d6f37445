"""Known-bad: SIM802 — commit region replays slow-path writes out of order.

All guards are present and every constant is fresh, but the final
``flags``/``touch`` updates are swapped relative to ``Cache.access``:
byte-for-byte state convergence no longer follows from the replay.
"""
# sim-fastpath: kind=load queues=0 hook=0 precise=1 image=0 line_bits=5 set_mask=1023 assoc=1 n_ports=4 latency=1 prune_every=8192


def replay(pc, addr, time, value=None):
    # guard[event-drain] protects: kernel.events, kernel.clock
    if event_times and event_times[0] <= time:
        run_until(time)
        counts_[1] += 1
    block = addr >> 5
    base = (block & 1023) * 1
    # guard[resident] protects: cache.tags, cache.ready, cache.touch, cache.flags
    try:
        slot = tags_index(block, base, base + 1)
    except ValueError:
        counts_[3] += 1
        return None
    if time > sim.now:
        sim.now = time
    st_outer.value += 1
    next_start = pipe._next_start
    t = time if next_start <= time else next_start
    pipe._next_start = t + 1
    pipe.accepts += 1
    count = ledger_get(t)
    if count is None:
        ledger[t] = 1
    else:
        while count is not None and count >= 4:
            t += 1
            count = ledger_get(t)
        ledger[t] = 1 if count is None else count + 1
    ports.grants += 1
    if len(ledger) > 8192:
        ports._prune(t)
    st_kind.value += 1
    if slot != base:
        line_ready = ready_arr[slot]
        line_flags = flags[slot]
        tags[base + 1:slot + 1] = tags[base:slot]
        tags[base] = block
        ready_arr[base + 1:slot + 1] = ready_arr[base:slot]
        ready_arr[base] = line_ready
        touch[base + 1:slot + 1] = touch[base:slot]
        flags[base + 1:slot + 1] = flags[base:slot]
    else:
        line_ready = ready_arr[base]
        line_flags = flags[base]
    was_prefetched = line_flags & 2
    if was_prefetched:
        line_flags &= -3
        st_useful.value += 1
    touch[base] = t
    flags[base] = line_flags
    ready = t + 1
    if line_ready > ready:
        ready = line_ready
    counts_[0] += 1
    return ready
