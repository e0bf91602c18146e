"""Pure-Python mirror of the C batch kernel (the executable spec).

Runs the same episode over the same :class:`~repro.dram.kernel.state`
arrays with the same integer semantics, so the differential tests can
pin the kernel logic even on hosts without a C compiler, and
``REPRO_KERNEL=py`` can force it for debugging.  Only the batch entry
exists here: the block-replay entry is a host-speed optimization, and
its pure-Python equivalent is the existing gated replay loop the
driver falls back to.

This file intentionally reads like ``kernel.c``; when editing one,
edit the other.
"""

from __future__ import annotations

from repro.dram.kernel.state import (
    FLAG_PREFETCH,
    FLAG_WRITEBACK,
    KERN_OK,
    KERR_DECODE_RANGE,
    KERR_FAW_OVERFLOW,
    KERR_VIOL_OVERFLOW,
    SCHED_FRFCFS,
    Cfg,
    St,
    TBL_STRIDE,
    VIOL_STRIDE,
    WRHIT_STRIDE,
)

_FAR_FUTURE = 1 << 62
_NEVER = -(10 ** 18)

# Constraint codes, in CONSTRAINT_NAMES order.
(_POWER_ON, _TRC, _TRP, _TRRD_L, _TRRD_S, _TFAW, _TRFC, _TRCD, _TCCD_L,
 _TCCD_S, _TWTR, _BANKS_OPEN) = range(12)

# Flat command-kind codes.
_K_ACT, _K_PRE, _K_PREA, _K_RD, _K_WR, _K_REF = range(6)


class _Ctx:
    """Python ints for the scalar state; numpy arrays for the rest."""

    def __init__(self, ks) -> None:
        self.ks = ks
        self.cfg = [int(v) for v in ks.cfg]
        self.st = [int(v) for v in ks.st]
        self.last_act = ks.last_act
        self.last_pre = ks.last_pre
        self.last_read = ks.last_read
        self.last_write = ks.last_write
        self.last_write_end = ks.last_write_end
        self.open_row = ks.open_row
        self.prev_open_row = ks.prev_open_row
        self.act_count = ks.act_count
        self.group_of = ks.group_of
        self.gmax_act = ks.gmax_act
        self.gmax_cas = ks.gmax_cas
        self.faw_ring = ks.faw_ring
        self.plan_n = ks.plan_n
        self.plan_kinds = ks.plan_kinds
        self.plan_offsets = ks.plan_offsets
        self.plan_cycles = ks.plan_cycles
        self.plan_charge = ks.plan_charge
        self.plan_measured = ks.plan_measured
        self.plan_postflush = ks.plan_postflush
        self.viol = ks.viol
        self.mat_keys = ks.mat_keys
        self.wrhit = ks.wrhit
        self.tracker = ks.tracker
        self.tbl = ks.tbl

    def flush(self) -> None:
        self.ks.st[:] = self.st


def _decode(k: _Ctx, addr: int):
    cfg = k.cfg
    total = cfg[Cfg.TOTAL_BYTES]
    if addr < 0 or (addr >= total and cfg[Cfg.STRICT_DECODE]):
        k.st[St.ERR_ADDR] = addr
        return KERR_DECODE_RANGE, 0, 0, 0
    if addr >= total:
        addr %= total
    line = addr // cfg[Cfg.LINE_BYTES]
    channels = cfg[Cfg.CHANNELS]
    if channels > 1:
        mode = cfg[Cfg.CH_MODE]
        if mode == 0:
            line %= cfg[Cfg.LINES_PER_CHANNEL]
        elif mode == 1:
            line //= channels
        elif mode == 2:
            columns = cfg[Cfg.COLUMNS]
            span, col_part = divmod(line, columns)
            line = (span // channels) * columns + col_part
        else:
            line //= channels
    if cfg[Cfg.ROW_MAJOR]:
        columns = cfg[Cfg.COLUMNS]
        nb = cfg[Cfg.DEC_BANKS]
        col = line % columns
        block = line // columns
        bank = block % nb
        row = (block // nb) % cfg[Cfg.ROWS]
        if cfg[Cfg.SKEWED]:
            bank = (bank + (row ^ (row >> 4) ^ (row >> 8))) % nb
    else:
        nb = cfg[Cfg.DEC_BANKS]
        columns = cfg[Cfg.COLUMNS]
        bank = line % nb
        line //= nb
        col = line % columns
        row = (line // columns) % cfg[Cfg.ROWS]
    return KERN_OK, bank, row, col


def _viol_push(k: _Ctx, kind, bank, row, col, t, earliest, code):
    st = k.st
    if st[St.VIOL_COUNT] >= st[St.VIOL_CAP]:
        return KERR_VIOL_OVERFLOW
    base = VIOL_STRIDE * st[St.VIOL_COUNT]
    k.viol[base:base + VIOL_STRIDE] = (kind, bank, row, col, t, earliest,
                                       code)
    st[St.VIOL_COUNT] += 1
    return KERN_OK


def _enum_act(k: _Ctx, bank: int):
    cfg, st = k.cfg, k.st
    cands = [(0, _POWER_ON),
             (int(k.last_act[bank]) + cfg[Cfg.TRC], _TRC),
             (int(k.last_pre[bank]) + cfg[Cfg.TRP], _TRP)]
    grp = int(k.group_of[bank])
    for ob in range(cfg[Cfg.NBANKS]):
        if ob == bank:
            continue
        if int(k.group_of[ob]) == grp:
            cands.append((int(k.last_act[ob]) + cfg[Cfg.TRRD_L], _TRRD_L))
        else:
            cands.append((int(k.last_act[ob]) + cfg[Cfg.TRRD_S], _TRRD_S))
    length = st[St.FAW_LEN]
    if length < 4:
        cands.append((0, _TFAW))
    else:
        cap = cfg[Cfg.FAW_CAP]
        idx = (st[St.FAW_HEAD] + length - 4) % cap
        cands.append((int(k.faw_ring[idx]) + cfg[Cfg.TFAW], _TFAW))
    cands.append((st[St.LAST_REF] + cfg[Cfg.TRFC], _TRFC))
    return max(cands, key=lambda c: c[0])


def _enum_cas(k: _Ctx, bank: int, is_write: bool):
    cfg = k.cfg
    cands = [(0, _POWER_ON),
             (int(k.last_act[bank]) + cfg[Cfg.TRCD], _TRCD)]
    grp = int(k.group_of[bank])
    for ob in range(cfg[Cfg.NBANKS]):
        cas = max(int(k.last_read[ob]), int(k.last_write[ob]))
        if int(k.group_of[ob]) == grp:
            cands.append((cas + cfg[Cfg.TCCD_L], _TCCD_L))
        else:
            cands.append((cas + cfg[Cfg.TCCD_S], _TCCD_S))
    if not is_write:
        we = max(int(k.last_write_end[ob])
                 for ob in range(cfg[Cfg.NBANKS]))
        cands.append((we + cfg[Cfg.TWTR], _TWTR))
    return max(cands, key=lambda c: c[0])


def _enum_ref(k: _Ctx):
    cfg, st = k.cfg, k.st
    cands = [(0, _POWER_ON)]
    for b in range(cfg[Cfg.NBANKS]):
        cands.append((int(k.last_pre[b]) + cfg[Cfg.TRP], _TRP))
        if int(k.open_row[b]) >= 0:
            cands.append((_FAR_FUTURE, _BANKS_OPEN))
    cands.append((st[St.LAST_REF] + cfg[Cfg.TRFC], _TRFC))
    return max(cands, key=lambda c: c[0])


def _note_wr_hit(k: _Ctx, bank: int, row: int, col: int):
    st = k.st
    n = st[St.NMAT]
    if not n or row < 0:
        return KERN_OK
    key = (bank << 32) | row
    lo, hi = 0, n - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        v = int(k.mat_keys[mid])
        if v == key:
            if st[St.WRHIT_COUNT] >= st[St.WRHIT_CAP]:
                return KERR_VIOL_OVERFLOW
            base = WRHIT_STRIDE * st[St.WRHIT_COUNT]
            k.wrhit[base:base + WRHIT_STRIDE] = (bank, row, col)
            st[St.WRHIT_COUNT] += 1
            return KERN_OK
        if v < key:
            lo = mid + 1
        else:
            hi = mid - 1
    return KERN_OK


def _apply_act(k: _Ctx, bank: int, row: int, t: int):
    cfg, st = k.cfg, k.st
    grp = int(k.group_of[bank])
    k.last_act[bank] = t
    k.act_count[bank] += 1
    if int(k.open_row[bank]) < 0:
        st[St.OPEN_COUNT] += 1
    k.open_row[bank] = row
    if t > int(k.gmax_act[grp]):
        k.gmax_act[grp] = t
    if t > st[St.MAX_ACT_ALL]:
        st[St.MAX_ACT_ALL] = t
    cap = cfg[Cfg.FAW_CAP]
    length = st[St.FAW_LEN]
    head = st[St.FAW_HEAD]
    if length >= cap:
        return KERR_FAW_OVERFLOW
    k.faw_ring[(head + length) % cap] = t
    length += 1
    cutoff = t - cfg[Cfg.TFAW]
    while length and int(k.faw_ring[head]) <= cutoff:
        head = (head + 1) % cap
        length -= 1
    st[St.FAW_HEAD] = head
    st[St.FAW_LEN] = length
    st[St.CMD_ACT] += 1
    return KERN_OK


def _apply_pre(k: _Ctx, bank: int, t: int) -> None:
    st = k.st
    k.prev_open_row[bank] = k.open_row[bank]
    if int(k.open_row[bank]) >= 0:
        st[St.OPEN_COUNT] -= 1
        k.open_row[bank] = -1
    k.last_pre[bank] = t
    if t > st[St.MAX_PRE]:
        st[St.MAX_PRE] = t
    st[St.CMD_PRE] += 1


def _apply_rd(k: _Ctx, bank: int, t: int) -> None:
    st = k.st
    grp = int(k.group_of[bank])
    k.last_read[bank] = t
    if t > int(k.gmax_cas[grp]):
        k.gmax_cas[grp] = t
    if t > st[St.MAX_CAS_ALL]:
        st[St.MAX_CAS_ALL] = t
    st[St.CMD_RD] += 1


def _apply_wr(k: _Ctx, bank: int, col: int, t: int):
    err = _note_wr_hit(k, bank, int(k.open_row[bank]), col)
    if err:
        return err
    cfg, st = k.cfg, k.st
    grp = int(k.group_of[bank])
    data_end = t + cfg[Cfg.WRITE_BURST]
    k.last_write[bank] = t
    k.last_write_end[bank] = data_end
    if t > int(k.gmax_cas[grp]):
        k.gmax_cas[grp] = t
    if t > st[St.MAX_CAS_ALL]:
        st[St.MAX_CAS_ALL] = t
    if data_end > st[St.MAX_WRITE_END]:
        st[St.MAX_WRITE_END] = data_end
    st[St.CMD_WR] += 1
    return KERN_OK


def _flat_earliest(k: _Ctx, kind: int, bank: int) -> int:
    cfg, st = k.cfg, k.st
    grp = int(k.group_of[bank])
    if kind == _K_ACT:
        e = int(k.last_act[bank]) + cfg[Cfg.TRC]
        e = max(e, int(k.last_pre[bank]) + cfg[Cfg.TRP],
                st[St.MAX_ACT_ALL] + cfg[Cfg.TRRD_S],
                int(k.gmax_act[grp]) + cfg[Cfg.TRRD_L],
                st[St.LAST_REF] + cfg[Cfg.TRFC])
        length = st[St.FAW_LEN]
        if length >= 4:
            cap = cfg[Cfg.FAW_CAP]
            idx = (st[St.FAW_HEAD] + length - 4) % cap
            e = max(e, int(k.faw_ring[idx]) + cfg[Cfg.TFAW])
        return e
    e = max(int(k.last_act[bank]) + cfg[Cfg.TRCD],
            st[St.MAX_CAS_ALL] + cfg[Cfg.TCCD_S],
            int(k.gmax_cas[grp]) + cfg[Cfg.TCCD_L])
    if kind == _K_RD:
        e = max(e, st[St.MAX_WRITE_END] + cfg[Cfg.TWTR])
    return e


def _issue_plan(k: _Ctx, p: int, bank: int, row: int, col: int, start: int):
    cfg, st = k.cfg, k.st
    n = int(k.plan_n[p])
    tck = cfg[Cfg.TCK]
    t = start
    for i in range(n):
        kind = int(k.plan_kinds[3 * p + i])
        t = start + int(k.plan_offsets[3 * p + i]) * tck
        if i:
            e = _flat_earliest(k, kind, bank)
            if t < e:
                if kind == _K_ACT:
                    ee, code = _enum_act(k, bank)
                else:
                    ee, code = _enum_cas(k, bank, kind == _K_WR)
                err = _viol_push(k, kind, bank, row, col, t, ee, code)
                if err:
                    return err
        if kind == _K_ACT:
            err = _apply_act(k, bank, row, t)
        elif kind == _K_PRE:
            _apply_pre(k, bank, t)
            err = KERN_OK
        elif kind == _K_RD:
            _apply_rd(k, bank, t)
            err = KERN_OK
        else:
            err = _apply_wr(k, bank, col, t)
        if err:
            return err
    st[St.LAST_ISSUE] = t
    return KERN_OK


def _refresh_episode(k: _Ctx):
    cfg, st = k.cfg, k.st
    nb = cfg[Cfg.NBANKS]
    while st[St.NEXT_REFRESH] <= st[St.SCHED_CURSOR]:
        st[St.CHARGED] = 0
        anchor = st[St.SCHED_CURSOR]
        st[St.EXEC_ANCHOR] = anchor
        start = anchor if anchor >= st[St.DRAM_CURSOR] else st[St.DRAM_CURSOR]
        e = 0
        for b in range(nb):
            v = max(int(k.last_act[b]) + cfg[Cfg.TRAS],
                    int(k.last_read[b]) + cfg[Cfg.TRTP],
                    int(k.last_write_end[b]) + cfg[Cfg.TWR])
            if v > e:
                e = v
        if e > start:
            start = e
        for b in range(nb):
            k.prev_open_row[b] = k.open_row[b]
            if int(k.open_row[b]) >= 0:
                st[St.OPEN_COUNT] -= 1
                k.open_row[b] = -1
            k.last_pre[b] = start
        if start > st[St.MAX_PRE]:
            st[St.MAX_PRE] = start
        st[St.CMD_PREA] += 1
        st[St.LAST_ISSUE] = start
        t2 = start + cfg[Cfg.REF_OFFSET]
        er = max(st[St.MAX_PRE] + cfg[Cfg.TRP],
                 st[St.LAST_REF] + cfg[Cfg.TRFC])
        if st[St.OPEN_COUNT]:
            er = _FAR_FUTURE
        if er < 0:
            er = 0
        if t2 < er:
            ee, code = _enum_ref(k)
            err = _viol_push(k, _K_REF, 0, 0, 0, t2, ee, code)
            if err:
                return err
        st[St.LAST_REF] = t2
        st[St.CMD_REF] += 1
        st[St.LAST_ISSUE] = t2
        st[St.B_PROGRAMS] += 1
        st[St.B_CYCLES] += cfg[Cfg.REF_CYCLES]
        st[St.DRAM_CURSOR] = start + cfg[Cfg.REF_MEASURED]
        st[St.T_DRAM_BUSY] += cfg[Cfg.REF_MEASURED]
        st[St.S_BATCHES] += 1
        st[St.CHARGED] = 0
        st[St.S_REFRESHES] += 1
        st[St.T_REFRESHES] += 1
        if cfg[Cfg.STORM_FACTOR] > 1:
            st[St.REFRESH_INDEX] += 1
            if st[St.REFRESH_INDEX] % cfg[Cfg.STORM_FACTOR]:
                st[St.S_STORM] += 1
        st[St.NEXT_REFRESH] += cfg[Cfg.REFRESH_INTERVAL]
        if not cfg[Cfg.PIPELINED] and st[St.DRAM_CURSOR] > st[St.SCHED_CURSOR]:
            st[St.SCHED_CURSOR] = st[St.DRAM_CURSOR]
    return KERN_OK


def _serve_one(k: _Ctx, bank, row, col, is_wb, is_pref, core):
    cfg, st = k.cfg, k.st
    sched_start = st[St.SCHED_CURSOR]
    open_row = int(k.open_row[bank])
    if open_row == row:
        st[St.T_HITS] += 1
        cse = 0
    elif open_row < 0:
        st[St.T_MISSES] += 1
        cse = 1
    else:
        st[St.T_CONFLICTS] += 1
        cse = 2
    if cfg[Cfg.HAS_TRACKER]:
        base = 6 * core
        if is_pref:
            k.tracker[base + 2] += 1
        else:
            k.tracker[base + (1 if is_wb else 0)] += 1
            k.tracker[base + 3 + cse] += 1
    p = 2 * cse + is_wb
    sched_cycles = st[St.CHARGED] + int(k.plan_charge[p])
    st[St.CHARGED] = 0
    st[St.S_SCHED_CYCLES] += sched_cycles
    sched_ps = sched_cycles * cfg[Cfg.MC_PERIOD]
    st[St.T_SCHED_PS] += sched_ps
    start = sched_start + sched_ps
    st[St.EXEC_ANCHOR] = start
    if st[St.DRAM_CURSOR] > start:
        start = st[St.DRAM_CURSOR]
    grp = int(k.group_of[bank])
    if cse == 0:
        e = max(int(k.last_act[bank]) + cfg[Cfg.TRCD],
                st[St.MAX_CAS_ALL] + cfg[Cfg.TCCD_S],
                int(k.gmax_cas[grp]) + cfg[Cfg.TCCD_L])
        if not is_wb:
            e = max(e, st[St.MAX_WRITE_END] + cfg[Cfg.TWTR])
    elif cse == 2:
        e = max(int(k.last_act[bank]) + cfg[Cfg.TRAS],
                int(k.last_read[bank]) + cfg[Cfg.TRTP],
                int(k.last_write_end[bank]) + cfg[Cfg.TWR])
    else:
        e = _flat_earliest(k, _K_ACT, bank)
    if e > start:
        start = e
    if cse:
        err = _issue_plan(k, p, bank, row, col, start)
    else:
        kind = int(k.plan_kinds[3 * p])
        if kind == _K_RD:
            _apply_rd(k, bank, start)
            err = KERN_OK
        else:
            err = _apply_wr(k, bank, col, start)
        if not err:
            st[St.LAST_ISSUE] = start
    if err:
        return err, 0, 0
    st[St.B_PROGRAMS] += 1
    st[St.B_CYCLES] += int(k.plan_cycles[p])
    measured = int(k.plan_measured[p])
    dram_end = start + measured
    st[St.DRAM_CURSOR] = dram_end
    st[St.T_DRAM_BUSY] += measured
    st[St.S_BATCHES] += 1
    release_ps = (dram_end
                  + (cfg[Cfg.LAT_WR] if is_wb else cfg[Cfg.LAT_RD])
                  + cfg[Cfg.RESP_BUS])
    release = -(-release_ps // cfg[Cfg.PROC_PERIOD])
    service = dram_end - sched_start
    if is_wb:
        st[St.S_WRITES] += 1
    elif is_pref:
        st[St.S_PREFETCHES] += 1
    else:
        st[St.S_READS] += 1
    st[St.CHARGED] = 0
    st[St.T_RESPONSES] += 1
    if cfg[Cfg.PIPELINED]:
        occupied = sched_start + cfg[Cfg.OCCUPANCY]
        if occupied > st[St.SCHED_CURSOR]:
            st[St.SCHED_CURSOR] = occupied
    else:
        cursor = sched_start + sched_ps + int(k.plan_postflush[p])
        if dram_end > cursor:
            cursor = dram_end
        st[St.SCHED_CURSOR] = cursor
    return KERN_OK, release, service


def serve_batch(ks) -> int:
    """Run one critical-mode episode over the loaded batch arrays."""
    k = _Ctx(ks)
    cfg, st = k.cfg, k.st
    n = st[St.N_REQ]
    tag = ks.req_tag
    addr = ks.req_addr
    flags = ks.req_flags
    core = ks.req_core
    release = ks.req_release
    service = ks.req_service
    if not st[St.CNT_CRITICAL]:
        st[St.CNT_CRITICAL] = 1
        st[St.CNT_CRIT_ENTRIES] += 1
        st[St.CNT_LOCKED_AT] = st[St.CNT_PROC]
    st[St.CHARGED] += cfg[Cfg.TOGGLE]
    st[St.CRITICAL] = 1
    pp = cfg[Cfg.PROC_PERIOD]
    bus = cfg[Cfg.REQ_BUS]
    now = int(tag[0]) * pp + bus
    if st[St.SCHED_CURSOR] > now:
        now = st[St.SCHED_CURSOR]
    st[St.SCHED_CURSOR] = now
    pos = 0
    tcount = 0
    tbl = k.tbl
    frfcfs = cfg[Cfg.SCHED_KIND] == SCHED_FRFCFS
    while pos < n or tcount:
        cursor = st[St.SCHED_CURSOR]
        while pos < n:
            arrival = int(tag[pos]) * pp + bus
            if arrival <= cursor or not tcount:
                st[St.T_REQUESTS] += 1
                st[St.CHARGED] += cfg[Cfg.TRANSFER_CHARGE]
                err, bank, row, col = _decode(k, int(addr[pos]))
                if err:
                    k.flush()
                    return err
                base = TBL_STRIDE * tcount
                tbl[base:base + TBL_STRIDE] = (
                    st[St.ARRIVAL_COUNTER], pos, bank, row, col,
                    int(flags[pos]) & FLAG_WRITEBACK, 0, 0)
                st[St.ARRIVAL_COUNTER] += 1
                tcount += 1
                if arrival > cursor:
                    cursor = arrival
                pos += 1
            else:
                break
        st[St.SCHED_CURSOR] = cursor
        if not tcount:
            next_arrival = int(tag[pos]) * pp + bus
            if next_arrival > cursor:
                st[St.SCHED_CURSOR] = next_arrival
            continue
        if cfg[Cfg.REFRESH_ENABLED] and st[St.NEXT_REFRESH] <= st[St.SCHED_CURSOR]:
            err = _refresh_episode(k)
            if err:
                k.flush()
                return err
        st[St.CHARGED] += cfg[Cfg.DECISION_BASE] + cfg[Cfg.DECISION_PER] * tcount
        pick = 0
        if tcount > 1 and frfcfs:
            first = tbl[0:TBL_STRIDE]
            last = tbl[TBL_STRIDE * (tcount - 1):TBL_STRIDE * tcount]
            age_cap = cfg[Cfg.AGE_CAP]
            if age_cap >= 0 and int(last[0]) - int(first[0]) >= age_cap:
                pick = 0
            elif not int(first[5]) and int(k.open_row[int(first[2])]) == int(first[3]):
                pick = 0
            else:
                best_key = 1 << 63
                for j in range(tcount):
                    base = TBL_STRIDE * j
                    key = int(tbl[base])
                    if int(tbl[base + 5]):
                        key += 2 << 60
                    if int(k.open_row[int(tbl[base + 2])]) != int(tbl[base + 3]):
                        key += 1 << 60
                    if key < best_key:
                        best_key = key
                        pick = j
        base = TBL_STRIDE * pick
        idx = int(tbl[base + 1])
        fl = int(flags[idx])
        err, rel, svc = _serve_one(
            k, int(tbl[base + 2]), int(tbl[base + 3]), int(tbl[base + 4]),
            int(tbl[base + 5]), 1 if fl & FLAG_PREFETCH else 0,
            int(core[idx]) if core.size else 0)
        if err:
            k.flush()
            return err
        release[idx] = rel
        service[idx] = svc
        if pick < tcount - 1:
            tbl[base:TBL_STRIDE * (tcount - 1)] = \
                tbl[base + TBL_STRIDE:TBL_STRIDE * tcount].copy()
        tcount -= 1
    st[St.CHARGED] += cfg[Cfg.TOGGLE]
    st[St.CRITICAL] = 0
    point = max(st[St.SCHED_CURSOR], st[St.DRAM_CURSOR])
    cycle = point // pp
    if cycle > st[St.CNT_MC]:
        st[St.CNT_MC] = cycle
    st[St.CNT_CRITICAL] = 0
    if st[St.CNT_MC] > st[St.CNT_PROC]:
        st[St.CNT_CATCHUP] += st[St.CNT_MC] - st[St.CNT_PROC]
        st[St.CNT_PROC] = st[St.CNT_MC]
    k.flush()
    return KERN_OK
