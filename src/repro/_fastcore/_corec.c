/* _corec.c — the compiled simulator fast core ("fast-c" backend).
 *
 * A C port of repro.sim.simulator.Simulator's hot path: the two-level
 * calendar queue (timing wheel + current-slot heap + overflow heap),
 * the event-slab freelist, periodic re-arm, tombstone cancellation with
 * amortised compaction, and the drain loop.
 *
 * The contract is bit-identity with the pure-python core: same firing
 * order (time, then scheduling seq), same RNG draw order (callbacks run
 * in the same sequence), same counter values at every callback boundary
 * for everything a trial can observe (pending, heap_size — the keys the
 * watchdog samples), and therefore byte-identical TrialResults. The
 * algorithm below is a line-for-line port of the python one; where the
 * python comments explain *why*, this file only notes where C forces a
 * different *how*:
 *
 *   - triples are C structs {time, seq, ev}, not tuples, and the heaps
 *     are plain arrays with (time, seq) comparison. Pop order for a
 *     binary min-heap is fully determined by the keys (seq is unique),
 *     so heap-layout differences between heapq and this code cannot
 *     change the firing order;
 *   - the slab's getrefcount(ev) == 2 gate (local + getrefcount arg)
 *     becomes Py_REFCNT(ev) == 1 on the popped triple's sole reference
 *     — the same "scheduler is the only owner" test;
 *   - the drain ports drain_plain (repro/sim/_drain.py), the one
 *     drain loop; its sanitized twin stays in python (see below);
 *   - callbacks can reenter schedule()/cancel() (and cancel can
 *     compact, which reallocates every array), so the loop re-reads
 *     self->cur after every callback and never caches array pointers
 *     across one.
 *
 * set_sanitize_hook raises: the sanitizer rescans python-visible queue
 * internals that this core does not expose. run_trial() routes
 * sanitized runs to the pure backend before the simulator is built.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdarg.h>
#include <stdint.h>
#include <math.h>
#include <time.h>

#define WHEEL_SHIFT 16
#define WHEEL_SLOTS 256
#define OCC_WORDS (WHEEL_SLOTS / 64)
#define WHEEL_HORIZON ((long long)WHEEL_SLOTS << WHEEL_SHIFT)
#define COMPACT_MIN_HEAP 64
#define SLAB_MAX_FREE 4096

/* Event states; the python core's interned strings are kept for the
 * .state attribute so handles look identical from client code. */
enum { ST_PENDING = 0, ST_FIRED = 1, ST_CANCELLED = 2 };

static PyObject *ClockError;
static PyObject *SchedulingError;
static PyObject *state_strings[3]; /* "pending", "fired", "cancelled" */

typedef struct CPeriodic CPeriodic;

typedef struct {
    PyObject_HEAD
    long long time;
    long long seq;
    PyObject *callback; /* strong */
    PyObject *args;     /* strong, always a tuple */
    PyObject *label;    /* strong, str or NULL (exposed as None) */
    CPeriodic *periodic; /* strong; non-NULL on periodic-timer events */
    int state;
} CEvent;

typedef struct {
    long long time;
    long long seq;
    CEvent *ev; /* strong */
} Triple;

typedef struct {
    Triple *a;
    Py_ssize_t len;
    Py_ssize_t cap;
} TList;

typedef struct {
    PyObject_HEAD
    long long now_ns;
    long long seq;
    long long fired;
    long long cancelled;
    long long tombstones;
    long long compactions;
    int running;
    int cursor; /* -1 .. WHEEL_SLOTS-1 */
    long long wheel_base;
    long long wheel_count;
    uint64_t occ[OCC_WORDS];
    TList cur;      /* heap */
    TList overflow; /* heap */
    TList wheel[WHEEL_SLOTS]; /* append-ordered buckets */
    /* slab freelist (LIFO, like the python EventSlab) */
    CEvent **free_list;
    Py_ssize_t nfree;
    long long slab_allocated;
    long long slab_reused;
    long long slab_high_water;
} FastCoreObject;

struct CPeriodic {
    PyObject_HEAD
    FastCoreObject *sim; /* strong */
    CEvent *event;       /* strong */
    long long interval_ns;
    long long fires;
    int active;
};

static PyTypeObject CEvent_Type;
static PyTypeObject CPeriodic_Type;
static PyTypeObject FastCore_Type;

/* ------------------------------------------------------------------ */
/* Triple lists and heaps                                             */
/* ------------------------------------------------------------------ */

static int
tl_reserve(TList *l, Py_ssize_t need)
{
    Py_ssize_t cap;
    Triple *a;
    if (need <= l->cap)
        return 0;
    cap = l->cap ? l->cap : 8;
    while (cap < need)
        cap *= 2;
    a = (Triple *)PyMem_Realloc(l->a, (size_t)cap * sizeof(Triple));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    l->a = a;
    l->cap = cap;
    return 0;
}

static int
tl_append(TList *l, Triple t) /* steals t.ev */
{
    if (tl_reserve(l, l->len + 1) < 0) {
        Py_DECREF(t.ev);
        return -1;
    }
    l->a[l->len++] = t;
    return 0;
}

static inline int
triple_lt(const Triple *x, const Triple *y)
{
    if (x->time != y->time)
        return x->time < y->time;
    return x->seq < y->seq;
}

static void
heap_sift_toward_root(TList *h, Py_ssize_t pos)
{
    Triple item = h->a[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!triple_lt(&item, &h->a[parent]))
            break;
        h->a[pos] = h->a[parent];
        pos = parent;
    }
    h->a[pos] = item;
}

static void
heap_sift_toward_leaves(TList *h, Py_ssize_t pos)
{
    Py_ssize_t n = h->len;
    Triple item = h->a[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && triple_lt(&h->a[child + 1], &h->a[child]))
            child += 1;
        if (!triple_lt(&h->a[child], &item))
            break;
        h->a[pos] = h->a[child];
        pos = child;
    }
    h->a[pos] = item;
}

static int
heap_push(TList *h, Triple t) /* steals t.ev */
{
    if (tl_append(h, t) < 0)
        return -1;
    heap_sift_toward_root(h, h->len - 1);
    return 0;
}

static Triple
heap_pop(TList *h) /* caller owns the returned ev ref; precondition len > 0 */
{
    Triple top = h->a[0];
    h->len -= 1;
    if (h->len > 0) {
        h->a[0] = h->a[h->len];
        heap_sift_toward_leaves(h, 0);
    }
    return top;
}

static void
heapify(TList *h)
{
    Py_ssize_t i;
    for (i = h->len / 2 - 1; i >= 0; i--)
        heap_sift_toward_leaves(h, i);
}

/* ------------------------------------------------------------------ */
/* Occupancy bitmap                                                   */
/* ------------------------------------------------------------------ */

static inline void
occ_set(FastCoreObject *s, int idx)
{
    s->occ[idx >> 6] |= (uint64_t)1 << (idx & 63);
}

static inline void
occ_clear(FastCoreObject *s, int idx)
{
    s->occ[idx >> 6] &= ~((uint64_t)1 << (idx & 63));
}

static int
occ_next(FastCoreObject *s, int from) /* lowest set bit >= from, or -1 */
{
    int w;
    uint64_t word;
    if (from >= WHEEL_SLOTS)
        return -1;
    if (from < 0)
        from = 0;
    w = from >> 6;
    word = s->occ[w] & (~(uint64_t)0 << (from & 63));
    for (;;) {
        if (word)
            return (w << 6) + __builtin_ctzll(word);
        if (++w >= OCC_WORDS)
            return -1;
        word = s->occ[w];
    }
}

static int
occ_popcount(FastCoreObject *s)
{
    int w, n = 0;
    for (w = 0; w < OCC_WORDS; w++)
        n += __builtin_popcountll(s->occ[w]);
    return n;
}

/* ------------------------------------------------------------------ */
/* CEvent                                                             */
/* ------------------------------------------------------------------ */

static CEvent *
cevent_alloc(void)
{
    CEvent *ev = PyObject_GC_New(CEvent, &CEvent_Type);
    if (ev == NULL)
        return NULL;
    ev->time = 0;
    ev->seq = 0;
    ev->callback = NULL;
    ev->args = NULL;
    ev->label = NULL;
    ev->periodic = NULL;
    ev->state = ST_PENDING;
    PyObject_GC_Track((PyObject *)ev);
    return ev;
}

static int
cevent_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->args);
    Py_VISIT(self->label);
    Py_VISIT((PyObject *)self->periodic);
    return 0;
}

static int
cevent_clear(CEvent *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    Py_CLEAR(self->label);
    Py_CLEAR(self->periodic);
    return 0;
}

static void
cevent_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack((PyObject *)self);
    cevent_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
cevent_get_state(CEvent *self, void *closure)
{
    PyObject *s = state_strings[self->state];
    Py_INCREF(s);
    return s;
}

static PyObject *
cevent_get_pending(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->state == ST_PENDING);
}

static PyObject *
cevent_get_cancelled(CEvent *self, void *closure)
{
    return PyBool_FromLong(self->state == ST_CANCELLED);
}

static PyObject *
cevent_get_label(CEvent *self, void *closure)
{
    PyObject *l = self->label ? self->label : Py_None;
    Py_INCREF(l);
    return l;
}

static PyObject *
cevent_get_callback(CEvent *self, void *closure)
{
    PyObject *cb = self->callback ? self->callback : Py_None;
    Py_INCREF(cb);
    return cb;
}

static PyObject *
cevent_get_args(CEvent *self, void *closure)
{
    PyObject *a = self->args ? self->args : Py_None;
    Py_INCREF(a);
    return a;
}

static PyObject *
cevent_repr(CEvent *self)
{
    const char *name = "callback";
    PyObject *nameobj = NULL;
    PyObject *out;
    if (self->label && PyUnicode_Check(self->label)) {
        nameobj = self->label;
        Py_INCREF(nameobj);
    } else if (self->callback) {
        nameobj = PyObject_GetAttrString(self->callback, "__name__");
        if (nameobj == NULL)
            PyErr_Clear();
    }
    if (nameobj && PyUnicode_Check(nameobj))
        name = PyUnicode_AsUTF8(nameobj);
    out = PyUnicode_FromFormat("Event(t=%lld, seq=%lld, %s, %U)",
                               self->time, self->seq, name ? name : "callback",
                               state_strings[self->state]);
    Py_XDECREF(nameobj);
    return out;
}

static PyMemberDef cevent_members[] = {
    {"time", T_LONGLONG, offsetof(CEvent, time), READONLY, NULL},
    {"seq", T_LONGLONG, offsetof(CEvent, seq), READONLY, NULL},
    {NULL},
};

static PyGetSetDef cevent_getset[] = {
    {"state", (getter)cevent_get_state, NULL, NULL, NULL},
    {"pending", (getter)cevent_get_pending, NULL, NULL, NULL},
    {"cancelled", (getter)cevent_get_cancelled, NULL, NULL, NULL},
    {"label", (getter)cevent_get_label, NULL, NULL, NULL},
    {"callback", (getter)cevent_get_callback, NULL, NULL, NULL},
    {"args", (getter)cevent_get_args, NULL, NULL, NULL},
    {NULL},
};

static PyTypeObject CEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastcore._corec.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear,
    .tp_members = cevent_members,
    .tp_getset = cevent_getset,
    .tp_doc = "Opaque scheduled-event handle (compiled core).",
};

/* ------------------------------------------------------------------ */
/* Slab freelist                                                      */
/* ------------------------------------------------------------------ */

/* The python gate is getrefcount(ev) == 2: the drain's local plus the
 * getrefcount argument, i.e. "nothing but the scheduler still holds
 * it". Here the caller owns exactly one reference (the popped
 * triple's), so the gate is Py_REFCNT == 1. Steals the reference
 * either way: into the freelist, or dropped to the GC. */
static void
retire_event(FastCoreObject *self, CEvent *ev)
{
    if (Py_REFCNT((PyObject *)ev) == 1 && ev->periodic == NULL &&
        self->nfree < SLAB_MAX_FREE) {
        Py_ssize_t n = self->nfree;
        self->free_list[n] = ev; /* keep the reference */
        self->nfree = n + 1;
        if (n >= self->slab_high_water)
            self->slab_high_water = n + 1;
        return;
    }
    Py_DECREF(ev);
}

/* Returns a new reference; mirrors the inlined slab acquire in
 * Simulator.schedule (LIFO reuse, counters bumped the same way). */
static CEvent *
acquire_event(FastCoreObject *self, long long time, long long seq,
              PyObject *callback, PyObject *args /* stolen */,
              PyObject *label /* borrowed or NULL */)
{
    CEvent *ev;
    if (self->nfree > 0) {
        ev = self->free_list[--self->nfree];
        self->slab_reused += 1;
        Py_INCREF(callback);
        Py_XSETREF(ev->callback, callback);
        Py_XSETREF(ev->args, args);
        Py_XINCREF(label);
        Py_XSETREF(ev->label, label);
    } else {
        self->slab_allocated += 1;
        ev = cevent_alloc();
        if (ev == NULL) {
            Py_DECREF(args);
            return NULL;
        }
        Py_INCREF(callback);
        ev->callback = callback;
        ev->args = args;
        Py_XINCREF(label);
        ev->label = label;
    }
    ev->time = time;
    ev->seq = seq;
    ev->state = ST_PENDING;
    return ev;
}

/* ------------------------------------------------------------------ */
/* Queue insert / cancel / compact                                    */
/* ------------------------------------------------------------------ */

/* The three-way dispatch from Simulator.schedule: at/behind the cursor
 * -> current-slot heap; inside the wheel window -> bucket append;
 * beyond the horizon -> overflow heap. Steals the ev reference. */
static int
insert_event(FastCoreObject *self, long long time, long long seq, CEvent *ev)
{
    long long idx = (time - self->wheel_base) >> WHEEL_SHIFT;
    Triple t = {time, seq, ev};
    if (idx <= (long long)self->cursor)
        return heap_push(&self->cur, t);
    if (idx < WHEEL_SLOTS) {
        if (tl_append(&self->wheel[idx], t) < 0)
            return -1;
        occ_set(self, (int)idx);
        self->wheel_count += 1;
        return 0;
    }
    return heap_push(&self->overflow, t);
}

static void
tl_filter_cancelled(TList *l)
{
    Py_ssize_t i, w = 0;
    for (i = 0; i < l->len; i++) {
        Triple t = l->a[i];
        if (t.ev->state == ST_CANCELLED)
            Py_DECREF(t.ev); /* dropped to the GC, not the slab */
        else
            l->a[w++] = t;
    }
    l->len = w;
}

static void
compact(FastCoreObject *self)
{
    int idx;
    long long count = 0;
    tl_filter_cancelled(&self->cur);
    heapify(&self->cur);
    tl_filter_cancelled(&self->overflow);
    heapify(&self->overflow);
    memset(self->occ, 0, sizeof(self->occ));
    for (idx = 0; idx < WHEEL_SLOTS; idx++) {
        TList *bucket = &self->wheel[idx];
        if (bucket->len) {
            tl_filter_cancelled(bucket);
            if (bucket->len) {
                occ_set(self, idx);
                count += bucket->len;
            }
        }
    }
    self->wheel_count = count;
    self->tombstones = 0;
    self->compactions += 1;
}

/* Shared by FastCore.cancel and CPeriodic.cancel: tombstone the event
 * and run the amortised compaction trigger (four int ops, same
 * threshold arithmetic as the python core). */
static void
cancel_event(FastCoreObject *self, CEvent *ev)
{
    long long tombs, total;
    ev->state = ST_CANCELLED;
    self->cancelled += 1;
    tombs = self->tombstones + 1;
    self->tombstones = tombs;
    total = self->seq - self->fired - self->cancelled + tombs;
    if (total >= COMPACT_MIN_HEAP && tombs * 2 > total)
        compact(self);
}

/* ------------------------------------------------------------------ */
/* Queue traversal                                                    */
/* ------------------------------------------------------------------ */

/* Port of Simulator._advance: load the next populated bucket whose
 * window starts at or before the deadline into the (empty) current
 * heap. Returns 1 loaded, 0 nothing runnable, -1 on error. */
static int
advance(FastCoreObject *self, long long deadline, int has_deadline)
{
    for (;;) {
        long long base = self->wheel_base;
        int idx = occ_next(self, self->cursor + 1);
        while (idx >= 0) {
            TList *bucket = &self->wheel[idx];
            TList tmp;
            if (bucket->len == 0) {
                /* Stale bit (compaction emptied the bucket). */
                occ_clear(self, idx);
                idx = occ_next(self, idx + 1);
                continue;
            }
            if (has_deadline &&
                base + ((long long)idx << WHEEL_SHIFT) > deadline)
                return 0;
            /* Zero-copy load: swap the bucket's array with the drained
             * (empty) current heap's, so the load allocates nothing and
             * the bucket inherits the spent array for reuse. */
            self->wheel_count -= bucket->len;
            occ_clear(self, idx);
            self->cursor = idx;
            tmp = self->cur;
            self->cur = *bucket;
            *bucket = tmp;
            heapify(&self->cur);
            return 1;
        }
        /* Wheel window exhausted: jump to the overflow's first event. */
        while (self->overflow.len &&
               self->overflow.a[0].ev->state == ST_CANCELLED) {
            Triple t = heap_pop(&self->overflow);
            self->tombstones -= 1;
            retire_event(self, t.ev);
        }
        if (self->overflow.len == 0)
            return 0;
        {
            long long t_min = self->overflow.a[0].time;
            long long limit, count = 0;
            if (has_deadline && t_min > deadline)
                return 0;
            base = (t_min >> WHEEL_SHIFT) << WHEEL_SHIFT;
            self->wheel_base = base;
            self->cursor = -1;
            limit = base + WHEEL_HORIZON;
            memset(self->occ, 0, sizeof(self->occ));
            while (self->overflow.len && self->overflow.a[0].time < limit) {
                Triple t = heap_pop(&self->overflow);
                long long idx2;
                if (t.ev->state == ST_CANCELLED) {
                    self->tombstones -= 1;
                    retire_event(self, t.ev);
                    continue;
                }
                idx2 = (t.time - base) >> WHEEL_SHIFT;
                if (tl_append(&self->wheel[idx2], t) < 0)
                    return -1;
                occ_set(self, (int)idx2);
                count += 1;
            }
            /* The wheel was provably empty before the refill. */
            self->wheel_count = count;
        }
        /* Loop: rescan the refilled window from slot 0. */
    }
}

/* ------------------------------------------------------------------ */
/* Firing                                                             */
/* ------------------------------------------------------------------ */

/* --profile wall-clock buckets. Enabled per-process by the CLI via
 * profile_buckets(True); when off (the default) the drain loop pays
 * nothing. The split is by callback kind at the firing boundary:
 * PyCFunction callbacks are compiled packet-path entries, everything
 * else is interpreter work. A python callback that re-enters compiled
 * entries is charged to the python bucket — these are coarse
 * "where does the wall clock go" counters, not a call graph. */
static int prof_enabled = 0;
static double prof_run_s = 0.0;
static double prof_py_s = 0.0;
static long long prof_py_calls = 0;
/* 1 while a timed Python frame runs: only the outermost one is timed,
 * so compiled entries it calls that resume more Python count once. */
static int prof_py_depth = 0;

static double
prof_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + ts.tv_nsec * 1e-9;
}

static PyObject *
fire_call(PyObject *callback, PyObject *args)
{
    double t0;
    PyObject *res;
    if (!prof_enabled || prof_py_depth || PyCFunction_Check(callback))
        return PyObject_Call(callback, args, NULL);
    prof_py_depth = 1;
    t0 = prof_now();
    res = PyObject_Call(callback, args, NULL);
    prof_py_s += prof_now() - t0;
    prof_py_calls += 1;
    prof_py_depth = 0;
    return res;
}

/* Fire one popped triple. Owns (and consumes) the ev reference.
 * The periodic branch is the C equivalent of the python fire()
 * closure: fires++ before the callback, re-arm consumes a fresh seq
 * *after* the callback — identical counter evolution at every
 * callback boundary. Returns 0, or -1 with an exception set. */
static int
fire_event(FastCoreObject *self, CEvent *ev)
{
    PyObject *res;
    CPeriodic *p = ev->periodic;
    if (p != NULL) {
        p->fires += 1;
        res = fire_call(ev->callback, ev->args);
        if (res == NULL) {
            Py_DECREF(ev);
            return -1;
        }
        Py_DECREF(res);
        if (p->active) {
            long long time = ev->time + p->interval_ns;
            long long seq = self->seq;
            self->seq = seq + 1;
            ev->time = time;
            ev->seq = seq;
            ev->state = ST_PENDING;
            return insert_event(self, time, seq, ev); /* ref moves back in */
        }
        retire_event(self, ev); /* handle still holds it: goes to the GC */
        return 0;
    }
    res = fire_call(ev->callback, ev->args);
    if (res == NULL) {
        Py_DECREF(ev);
        return -1;
    }
    Py_DECREF(res);
    retire_event(self, ev);
    return 0;
}

static void
raise_clock_error(long long time, long long now)
{
    PyErr_Format(ClockError, "event at t=%lld behind clock t=%lld", time, now);
}

/* Port of the generated drain_plain loop (repro/sim/_drain.py). */
static int
drain(FastCoreObject *self, long long deadline, int has_deadline)
{
    for (;;) {
        while (self->cur.len) {
            Triple head = self->cur.a[0];
            CEvent *ev = head.ev;
            if (ev->state == ST_CANCELLED) {
                heap_pop(&self->cur);
                self->tombstones -= 1;
                retire_event(self, ev);
                continue;
            }
            if (has_deadline && head.time > deadline)
                return 0;
            if (head.time < self->now_ns) {
                raise_clock_error(head.time, self->now_ns);
                return -1;
            }
            heap_pop(&self->cur);
            self->now_ns = head.time;
            ev->state = ST_FIRED;
            self->fired += 1;
            if (fire_event(self, ev) < 0)
                return -1;
            /* The callback may have scheduled, cancelled, compacted —
             * self->cur is re-read at the top of the loop. */
        }
        {
            int adv = advance(self, deadline, has_deadline);
            if (adv < 0)
                return -1;
            if (adv == 0)
                return 0;
        }
    }
}

/* ------------------------------------------------------------------ */
/* CPeriodic                                                          */
/* ------------------------------------------------------------------ */

static int
cperiodic_traverse(CPeriodic *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->sim);
    Py_VISIT((PyObject *)self->event);
    return 0;
}

static int
cperiodic_clear(CPeriodic *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->event);
    return 0;
}

static void
cperiodic_dealloc(CPeriodic *self)
{
    PyObject_GC_UnTrack((PyObject *)self);
    cperiodic_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
cperiodic_cancel(CPeriodic *self, PyObject *noargs)
{
    CEvent *ev;
    if (!self->active)
        Py_RETURN_FALSE;
    self->active = 0;
    ev = self->event;
    if (ev != NULL && ev->state == ST_PENDING && self->sim != NULL)
        cancel_event(self->sim, ev);
    Py_RETURN_TRUE;
}

static PyObject *
cperiodic_get_active(CPeriodic *self, void *closure)
{
    return PyBool_FromLong(self->active);
}

static PyObject *
cperiodic_repr(CPeriodic *self)
{
    return PyUnicode_FromFormat("PeriodicEvent(every %lld ns, fires=%lld, %s)",
                                self->interval_ns, self->fires,
                                self->active ? "active" : "cancelled");
}

static PyMemberDef cperiodic_members[] = {
    {"interval_ns", T_LONGLONG, offsetof(CPeriodic, interval_ns), READONLY, NULL},
    {"fires", T_LONGLONG, offsetof(CPeriodic, fires), READONLY, NULL},
    {NULL},
};

static PyGetSetDef cperiodic_getset[] = {
    {"active", (getter)cperiodic_get_active, NULL, NULL, NULL},
    {NULL},
};

static PyMethodDef cperiodic_methods[] = {
    {"cancel", (PyCFunction)cperiodic_cancel, METH_NOARGS,
     "Stop the timer. Safe from inside its own callback."},
    {NULL},
};

static PyTypeObject CPeriodic_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastcore._corec.PeriodicEvent",
    .tp_basicsize = sizeof(CPeriodic),
    .tp_dealloc = (destructor)cperiodic_dealloc,
    .tp_repr = (reprfunc)cperiodic_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)cperiodic_traverse,
    .tp_clear = (inquiry)cperiodic_clear,
    .tp_members = cperiodic_members,
    .tp_getset = cperiodic_getset,
    .tp_methods = cperiodic_methods,
    .tp_doc = "Recurring-timer handle (compiled core).",
};

/* ------------------------------------------------------------------ */
/* FastCore                                                           */
/* ------------------------------------------------------------------ */

static PyObject *
fastcore_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    FastCoreObject *self;
    if ((args && PyTuple_GET_SIZE(args)) || (kwargs && PyDict_GET_SIZE(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "FastCore() takes no arguments");
        return NULL;
    }
    self = (FastCoreObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->cursor = -1;
    self->free_list =
        (CEvent **)PyMem_Calloc(SLAB_MAX_FREE, sizeof(CEvent *));
    if (self->free_list == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

static int
fastcore_traverse(FastCoreObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    int b;
    for (i = 0; i < self->cur.len; i++)
        Py_VISIT((PyObject *)self->cur.a[i].ev);
    for (i = 0; i < self->overflow.len; i++)
        Py_VISIT((PyObject *)self->overflow.a[i].ev);
    for (b = 0; b < WHEEL_SLOTS; b++) {
        TList *bucket = &self->wheel[b];
        for (i = 0; i < bucket->len; i++)
            Py_VISIT((PyObject *)bucket->a[i].ev);
    }
    for (i = 0; i < self->nfree; i++)
        Py_VISIT((PyObject *)self->free_list[i]);
    return 0;
}

static void
tl_drop(TList *l)
{
    Py_ssize_t i;
    for (i = 0; i < l->len; i++)
        Py_DECREF(l->a[i].ev);
    l->len = 0;
    PyMem_Free(l->a);
    l->a = NULL;
    l->cap = 0;
}

static int
fastcore_clear_impl(FastCoreObject *self)
{
    int b;
    Py_ssize_t i;
    tl_drop(&self->cur);
    tl_drop(&self->overflow);
    for (b = 0; b < WHEEL_SLOTS; b++)
        tl_drop(&self->wheel[b]);
    memset(self->occ, 0, sizeof(self->occ));
    self->wheel_count = 0;
    if (self->free_list != NULL) {
        for (i = 0; i < self->nfree; i++)
            Py_DECREF(self->free_list[i]);
        self->nfree = 0;
    }
    return 0;
}

static void
fastcore_dealloc(FastCoreObject *self)
{
    PyObject_GC_UnTrack((PyObject *)self);
    fastcore_clear_impl(self);
    PyMem_Free(self->free_list);
    self->free_list = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
as_ns(PyObject *obj, long long *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* Shared kwnames handling for the fastcall schedule entry points:
 * only 'label' is accepted; returns 0 and writes the borrowed value
 * (NULL when absent or None). */
static int
parse_label_kw(PyObject *kwnames, PyObject *const *kwvalues,
               const char *fname, PyObject **label_out)
{
    *label_out = NULL;
    if (kwnames == NULL)
        return 0;
    {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        Py_ssize_t i;
        for (i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(name, "label") == 0) {
                *label_out = kwvalues[i];
            } else {
                PyErr_Format(PyExc_TypeError,
                             "%s() accepts only the 'label' keyword", fname);
                return -1;
            }
        }
    }
    if (*label_out == Py_None)
        *label_out = NULL;
    return 0;
}

static PyObject *
args_tuple_from(PyObject *const *items, Py_ssize_t n)
{
    PyObject *tup = PyTuple_New(n);
    Py_ssize_t i;
    if (tup == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        PyObject *item = items[i];
        Py_INCREF(item);
        PyTuple_SET_ITEM(tup, i, item);
    }
    return tup;
}

static PyObject *
schedule_common(FastCoreObject *self, long long delay, PyObject *callback,
                PyObject *cb_args /* stolen */, PyObject *label)
{
    long long time = self->now_ns + delay;
    long long seq = self->seq;
    CEvent *ev;
    self->seq = seq + 1;
    ev = acquire_event(self, time, seq, callback, cb_args, label);
    if (ev == NULL)
        return NULL;
    Py_INCREF(ev); /* one ref for the queue, one for the caller */
    if (insert_event(self, time, seq, ev) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

/* schedule(delay, callback, *args, label=None) */
static PyObject *
fastcore_schedule(FastCoreObject *self, PyObject *const *args, Py_ssize_t n,
                  PyObject *kwnames)
{
    long long delay;
    PyObject *cb_args, *label;
    if (n < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() requires (delay, callback, ...)");
        return NULL;
    }
    if (parse_label_kw(kwnames, args + n, "schedule", &label) < 0)
        return NULL;
    if (as_ns(args[0], &delay) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(SchedulingError,
                     "cannot schedule into the past (delay=%lld)", delay);
        return NULL;
    }
    cb_args = args_tuple_from(args + 2, n - 2);
    if (cb_args == NULL)
        return NULL;
    return schedule_common(self, delay, args[1], cb_args, label);
}

/* schedule_at(time, callback, *args, label=None) */
static PyObject *
fastcore_schedule_at(FastCoreObject *self, PyObject *const *args,
                     Py_ssize_t n, PyObject *kwnames)
{
    long long time;
    PyObject *cb_args, *label;
    if (n < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at() requires (time, callback, ...)");
        return NULL;
    }
    if (parse_label_kw(kwnames, args + n, "schedule_at", &label) < 0)
        return NULL;
    if (as_ns(args[0], &time) < 0)
        return NULL;
    if (time < self->now_ns) {
        PyErr_Format(SchedulingError,
                     "cannot schedule at t=%lld, now is t=%lld", time,
                     self->now_ns);
        return NULL;
    }
    cb_args = args_tuple_from(args + 2, n - 2);
    if (cb_args == NULL)
        return NULL;
    return schedule_common(self, time - self->now_ns, args[1], cb_args, label);
}

/* schedule_periodic(interval_ns, callback, *args, label=None,
 *                   first_delay=None) */
static PyObject *
fastcore_schedule_periodic(FastCoreObject *self, PyObject *args,
                           PyObject *kwargs)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    long long interval, delay, time, seq;
    PyObject *callback, *cb_args, *label = NULL, *first_delay = NULL;
    CPeriodic *handle;
    CEvent *ev;
    if (n < 2) {
        PyErr_SetString(
            PyExc_TypeError,
            "schedule_periodic() requires (interval_ns, callback, ...)");
        return NULL;
    }
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs)) {
        Py_ssize_t seen = 0;
        label = PyDict_GetItemString(kwargs, "label");
        if (label != NULL)
            seen++;
        first_delay = PyDict_GetItemString(kwargs, "first_delay");
        if (first_delay != NULL)
            seen++;
        if (seen != PyDict_GET_SIZE(kwargs)) {
            PyErr_SetString(PyExc_TypeError,
                            "schedule_periodic() accepts only the 'label' "
                            "and 'first_delay' keywords");
            return NULL;
        }
        if (label == Py_None)
            label = NULL;
        if (first_delay == Py_None)
            first_delay = NULL;
    }
    if (as_ns(PyTuple_GET_ITEM(args, 0), &interval) < 0)
        return NULL;
    if (interval <= 0) {
        PyErr_Format(SchedulingError,
                     "periodic interval must be positive, got %lld", interval);
        return NULL;
    }
    delay = interval;
    if (first_delay != NULL) {
        if (as_ns(first_delay, &delay) < 0)
            return NULL;
        if (delay < 0) {
            PyErr_Format(SchedulingError,
                         "cannot schedule into the past (first_delay=%lld)",
                         delay);
            return NULL;
        }
    }
    callback = PyTuple_GET_ITEM(args, 1);
    cb_args = PyTuple_GetSlice(args, 2, n);
    if (cb_args == NULL)
        return NULL;
    handle = PyObject_GC_New(CPeriodic, &CPeriodic_Type);
    if (handle == NULL) {
        Py_DECREF(cb_args);
        return NULL;
    }
    Py_INCREF(self);
    handle->sim = self;
    handle->event = NULL;
    handle->interval_ns = interval;
    handle->fires = 0;
    handle->active = 1;
    PyObject_GC_Track((PyObject *)handle);
    /* First arm goes through the same schedule path (seq consumed here,
     * slab acquire counted here) as the python core's self.schedule. */
    time = self->now_ns + delay;
    seq = self->seq;
    self->seq = seq + 1;
    ev = acquire_event(self, time, seq, callback, cb_args, label);
    if (ev == NULL) {
        Py_DECREF(handle);
        return NULL;
    }
    Py_INCREF(handle);
    ev->periodic = handle;
    Py_INCREF(ev);
    handle->event = ev;
    if (insert_event(self, time, seq, ev) < 0) {
        Py_DECREF(handle);
        return NULL;
    }
    return (PyObject *)handle;
}

static PyObject *
fastcore_cancel(FastCoreObject *self, PyObject *handle)
{
    if (Py_TYPE(handle) == &CPeriodic_Type)
        return cperiodic_cancel((CPeriodic *)handle, NULL);
    if (Py_TYPE(handle) == &CEvent_Type) {
        CEvent *ev = (CEvent *)handle;
        if (ev->state != ST_PENDING)
            Py_RETURN_FALSE;
        cancel_event(self, ev);
        Py_RETURN_TRUE;
    }
    PyErr_Format(PyExc_TypeError,
                 "cancel() expects an Event or PeriodicEvent handle from "
                 "this simulator, got %.100s", Py_TYPE(handle)->tp_name);
    return NULL;
}

static PyObject *
fastcore_run(FastCoreObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"until", NULL};
    PyObject *until_obj = Py_None;
    long long deadline = 0;
    int has_deadline = 0, rc;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O:run", kwlist,
                                     &until_obj))
        return NULL;
    if (until_obj != Py_None) {
        if (as_ns(until_obj, &deadline) < 0)
            return NULL;
        if (deadline < self->now_ns) {
            PyErr_Format(SchedulingError,
                         "deadline t=%lld is in the past (now t=%lld)",
                         deadline, self->now_ns);
            return NULL;
        }
        has_deadline = 1;
    }
    self->running = 1;
    if (prof_enabled) {
        double t0 = prof_now();
        rc = drain(self, deadline, has_deadline);
        prof_run_s += prof_now() - t0;
    }
    else {
        rc = drain(self, deadline, has_deadline);
    }
    self->running = 0;
    if (rc < 0)
        return NULL;
    if (has_deadline && deadline > self->now_ns)
        self->now_ns = deadline;
    return PyLong_FromLongLong(self->now_ns);
}

static PyObject *
fastcore_run_for(FastCoreObject *self, PyObject *arg)
{
    long long duration;
    PyObject *until, *tuple, *out;
    if (as_ns(arg, &duration) < 0)
        return NULL;
    until = PyLong_FromLongLong(self->now_ns + duration);
    if (until == NULL)
        return NULL;
    tuple = PyTuple_Pack(1, until);
    Py_DECREF(until);
    if (tuple == NULL)
        return NULL;
    out = fastcore_run(self, tuple, NULL);
    Py_DECREF(tuple);
    return out;
}

static PyObject *
fastcore_step(FastCoreObject *self, PyObject *noargs)
{
    for (;;) {
        while (self->cur.len) {
            Triple head = self->cur.a[0];
            CEvent *ev = head.ev;
            if (ev->state == ST_CANCELLED) {
                heap_pop(&self->cur);
                self->tombstones -= 1;
                retire_event(self, ev);
                continue;
            }
            if (head.time < self->now_ns) {
                raise_clock_error(head.time, self->now_ns);
                return NULL;
            }
            heap_pop(&self->cur);
            self->now_ns = head.time;
            ev->state = ST_FIRED;
            self->fired += 1;
            if (fire_event(self, ev) < 0)
                return NULL;
            Py_RETURN_TRUE;
        }
        {
            int adv = advance(self, 0, 0);
            if (adv < 0)
                return NULL;
            if (adv == 0)
                Py_RETURN_FALSE;
        }
    }
}

static PyObject *
fastcore_peek_time(FastCoreObject *self, PyObject *noargs)
{
    int idx;
    while (self->cur.len) {
        Triple head = self->cur.a[0];
        if (head.ev->state != ST_CANCELLED)
            return PyLong_FromLongLong(head.time);
        heap_pop(&self->cur);
        self->tombstones -= 1;
        retire_event(self, head.ev);
    }
    idx = occ_next(self, self->cursor + 1);
    while (idx >= 0) {
        TList *bucket = &self->wheel[idx];
        Py_ssize_t i;
        long long best = 0;
        int found = 0;
        for (i = 0; i < bucket->len; i++) {
            Triple *t = &bucket->a[i];
            if (t->ev->state != ST_CANCELLED && (!found || t->time < best)) {
                best = t->time;
                found = 1;
            }
        }
        if (found)
            return PyLong_FromLongLong(best);
        idx = occ_next(self, idx + 1);
    }
    while (self->overflow.len) {
        Triple head = self->overflow.a[0];
        if (head.ev->state != ST_CANCELLED)
            return PyLong_FromLongLong(head.time);
        heap_pop(&self->overflow);
        self->tombstones -= 1;
        retire_event(self, head.ev);
    }
    Py_RETURN_NONE;
}

static PyObject *
fastcore_set_sanitize_hook(FastCoreObject *self, PyObject *args)
{
    PyErr_SetString(
        PyExc_NotImplementedError,
        "the compiled fast core has no sanitized drain loop; sanitized "
        "runs use backend='pure' (run_trial falls back automatically)");
    return NULL;
}

static PyObject *
fastcore_clear_sanitize_hook(FastCoreObject *self, PyObject *noargs)
{
    Py_RETURN_NONE;
}

static PyObject *
fastcore_get_now(FastCoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->now_ns);
}

static PyObject *
fastcore_get_running(FastCoreObject *self, void *closure)
{
    return PyBool_FromLong(self->running);
}

static int
dict_set_ll(PyObject *d, const char *key, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyDict_SetItemString(d, key, v);
    Py_DECREF(v);
    return rc;
}

static PyObject *
fastcore_get_stats(FastCoreObject *self, void *closure)
{
    PyObject *d = PyDict_New();
    PyObject *backend;
    if (d == NULL)
        return NULL;
    backend = PyUnicode_FromString("fast-c");
    if (backend == NULL ||
        PyDict_SetItemString(d, "backend", backend) < 0) {
        Py_XDECREF(backend);
        Py_DECREF(d);
        return NULL;
    }
    Py_DECREF(backend);
    if (dict_set_ll(d, "scheduled", self->seq) < 0 ||
        dict_set_ll(d, "fired", self->fired) < 0 ||
        dict_set_ll(d, "cancelled", self->cancelled) < 0 ||
        dict_set_ll(d, "pending",
                    self->seq - self->fired - self->cancelled) < 0 ||
        dict_set_ll(d, "heap_size",
                    (long long)self->cur.len + self->wheel_count +
                        (long long)self->overflow.len) < 0 ||
        dict_set_ll(d, "compactions", self->compactions) < 0 ||
        dict_set_ll(d, "wheel_occupancy", occ_popcount(self)) < 0 ||
        dict_set_ll(d, "wheel_events", self->wheel_count) < 0 ||
        dict_set_ll(d, "current_bucket", (long long)self->cur.len) < 0 ||
        dict_set_ll(d, "overflow_size", (long long)self->overflow.len) < 0 ||
        dict_set_ll(d, "slab_allocated", self->slab_allocated) < 0 ||
        dict_set_ll(d, "slab_reused", self->slab_reused) < 0 ||
        dict_set_ll(d, "slab_recycled",
                    self->slab_reused + (long long)self->nfree) < 0 ||
        dict_set_ll(d, "slab_free", (long long)self->nfree) < 0 ||
        dict_set_ll(d, "slab_high_water", self->slab_high_water) < 0) {
        Py_DECREF(d);
        return NULL;
    }
    if (prof_enabled) {
        /* Process-wide since profile_buckets(True): the CLI enables
         * them around one command, which may run many simulators. */
        PyObject *v;
        int rc;
        v = PyFloat_FromDouble(prof_run_s);
        rc = v == NULL ? -1 : PyDict_SetItemString(d, "profile_run_s", v);
        Py_XDECREF(v);
        if (rc == 0) {
            v = PyFloat_FromDouble(prof_py_s);
            rc = v == NULL
                     ? -1
                     : PyDict_SetItemString(d, "profile_python_callback_s", v);
            Py_XDECREF(v);
        }
        if (rc == 0) {
            v = PyFloat_FromDouble(prof_run_s - prof_py_s);
            rc = v == NULL
                     ? -1
                     : PyDict_SetItemString(d, "profile_compiled_s", v);
            Py_XDECREF(v);
        }
        if (rc == 0)
            rc = dict_set_ll(d, "profile_python_callback_calls",
                             prof_py_calls);
        if (rc < 0) {
            Py_DECREF(d);
            return NULL;
        }
    }
    return d;
}

static PyObject *
corec_profile_buckets(PyObject *mod, PyObject *arg)
{
    int enable = PyObject_IsTrue(arg);
    if (enable < 0)
        return NULL;
    prof_enabled = enable;
    prof_run_s = 0.0;
    prof_py_s = 0.0;
    prof_py_calls = 0;
    Py_RETURN_NONE;
}

static PyObject *
corec_profile_snapshot(PyObject *mod, PyObject *noargs)
{
    return Py_BuildValue(
        "{s:i,s:d,s:d,s:d,s:L}", "enabled", prof_enabled, "run_s", prof_run_s,
        "python_callback_s", prof_py_s, "compiled_s", prof_run_s - prof_py_s,
        "python_callback_calls", prof_py_calls);
}

static PyObject *
fastcore_repr(FastCoreObject *self)
{
    return PyUnicode_FromFormat(
        "FastCore(backend=fast-c, now=%lld ns, pending=%lld, "
        "wheel=%d slots/%lld events, overflow=%zd, slab_hw=%lld)",
        self->now_ns, self->seq - self->fired - self->cancelled,
        occ_popcount(self), self->wheel_count, self->overflow.len,
        self->slab_high_water);
}

/* ================================================================== */
/* Packet fast path                                                   */
/* ================================================================== */
/* Compiled transliteration of the steady-state per-packet pipeline:
 * the CPU engine (hw/cpu.py + sim/process.py deliver loop), NIC ring
 * ops (hw/nic.py), kernel queues (kernel/queues.py), the
 * traffic generators, IP forwarding and the driver output hooks.
 *
 * Architecture: each hot Python *method* is transliterated to a C
 * function and bound as an *instance attribute* of the existing Python
 * object (PyCFunction has no __get__, so the instance-dict lookup
 * returns it ready to call). All mutable state stays canonical in the
 * Python objects — slot storage for __slots__ classes (the engine
 * classes among them, read by offset: see the accessors below), the
 * instance __dict__ for the rest — so compiled and interpreted code can
 * interleave freely and results are bit-identical by construction.
 *
 * Observers stay compiled. A body whose Python twin records a trace
 * event reads the same ``trace`` attribute at the same point and, when
 * a buffer is armed, calls its ``record``/``packet_drop``/
 * ``packet_deliver`` — the one record path of both backends — with the
 * same arguments in the same order (pp_trace below). A body whose
 * Python twin consults an armed fault injector (``faults`` set on the
 * NIC or line) hands that one call to the Python method. Only the
 * passive monitor makes repro._fastcore.packetpath uninstall the
 * bindings; the sanitizer forces the pure backend one layer up. */

#include <structmember.h>

/* Interned attribute keys, filled by pp_init_symbols(). */
#define PP_KEYS(X) \
    X(sim) X(hz) X(name) X(context_switch_cycles) X(_remaining) \
    X(_current) X(_completion) X(_chunk_started) X(_seq) X(_last_thread) \
    X(busy_ns) X(switches) X(preemptions) X(ipl_observers) \
    X(account_observers) X(trace) X(_complete) X(deliver) X(cpu) \
    X(base_ipl) X(spl_level) X(priority_class) X(cycles_used) \
    X(_ready_seq) X(_eff_ipl) X(_key) X(_work_label) X(state) X(_body) \
    X(_waiting_on) X(_exit_callbacks) X(exception) X(add_waiter) \
    X(_rx_ring) X(_tx_ring) X(_tx_done) X(_tx_busy) X(rx_line) X(tx_line) \
    X(faults) X(on_transmit) X(rx_ring_capacity) X(tx_ring_capacity) \
    X(tx_packet_time_ns) X(rx_accepted) X(rx_overflow_drops) \
    X(tx_completed) X(request) X(_transmit_complete) X(_items) X(limit) \
    X(high_watermark) X(low_watermark) X(on_high) X(on_low) \
    X(enqueue_count) X(dequeue_count) X(drop_count) X(max_depth) \
    X(_enqueued) X(_dequeued) X(_dropped) X(random) X(enqueue) X(dequeue) \
    X(sent) X(_pending) X(_tick) X(pool) X(src) X(dst) X(dst_port) \
    X(payload_bytes) X(flow) X(min_interval_ns) X(interval_ns) \
    X(jitter_fraction) X(rng) X(mean_interval_ns) X(burst_size) X(gap_ns) \
    X(_burst_position) X(_receive_from_wire) X(_gap_over) X(nic) \
    X(routing) X(arp) X(outputs) X(taps) X(screen_path) X(udp) \
    X(local_addresses) X(forwarded) X(no_route_drops) X(arp_failure_drops) \
    X(lookups) X(misses) X(failures) X(_routes) X(_entries) X(ifqueue) \
    X(tx_service_needed) X(polling) X(ipintrq) X(delivered) X(latency) \
    X(packet_pool) X(nic_out) X(_samples_ns) X(_observed) X(_recording) \
    X(sample_cap) X(enabled) X(requested) X(in_service) X(request_count) \
    X(dispatch_count) X(suppressed_while_disabled) X(controller) X(ipl) \
    X(try_deliver) X(_softnet_line) X(_netisr_signal) X(mark_dropped) \
    X(mark_transmitted) X(_pp_irq) X(lines) X(_on_ipl_change) \
    X(_dispatch_work) X(in_flight) X(quota) X(service_rounds) \
    X(rx_packets_processed) X(tx_packets_started) X(extra_rx_cycles) \
    X(rx_service_needed) X(costs) X(kernel) X(config) X(rx_batch_pull) \
    X(_tx_start_work) X(_forward_work) X(ip) X(ip_input) X(_dispatch) \
    X(rx_pull) X(rx_pull_many) X(rx_pending) X(tx_reclaim) X(tx_enqueue) \
    X(rx_device_per_packet) X(softirq_post) X(tx_reclaim_per_packet) \
    X(polled_rx_per_packet) X(polled_stub_handler) X(ticks) X(on_tick) \
    X(callout_table) X(due) X(func) X(executed) X(clock_tick) \
    X(callout_run) X(_rotate_quantum) X(record) X(packet_drop) \
    X(packet_deliver) X(input_packet) X(_fires) X(_waiters) X(_signal) \
    X(_wake_pending) X(wakeups) X(_scheduled) X(napi_schedules) \
    X(napi_polls) X(coalesce_ns) X(coalesce_max_ns) X(coalesce_grows) \
    X(coalesce_decays) X(_inhibit_reasons) X(rx_callback_runs) \
    X(tx_callback_runs) X(devices) X(_rr_index) X(cycle_limiter) \
    X(poll_loop_overhead) X(poll_device_check) X(cycle_accounting) \
    X(poll_rounds) X(rx) X(tx) X(used_cycles) X(threshold_cycles) \
    X(REASON) X(inhibitions) X(inhibit_input) X(poll_interval_ns) \
    X(_interval_dirty) X(polls) X(idle_polls) X(ipintrq_dequeue) X(cpu_hz) \
    X(on_idle)

enum {
#define PP_ENUM(n) PPK_##n,
    PP_KEYS(PP_ENUM)
#undef PP_ENUM
    PPK_COUNT
};

static PyObject *pp_keys[PPK_COUNT];

/* Trace record kinds the compiled bodies emit (repro.trace.buffer). */
#define PP_KINDS(X) \
    X(IRQ_REQUEST) X(IRQ_DISPATCH) X(IRQ_RETURN) X(CPU_RUN) X(CPU_IDLE) \
    X(RX_ACCEPT) X(RX_OVERFLOW) X(TX_COMPLETE) X(TX_RECLAIM) X(Q_ENQUEUE) \
    X(Q_DROP) X(QUOTA_EXHAUST) X(PKT_INJECT) X(CYCLE_LIMIT)

enum {
#define PP_KIND_ENUM(n) TK_##n,
    PP_KINDS(PP_KIND_ENUM)
#undef PP_KIND_ENUM
    TK_COUNT
};

/* Runtime symbols resolved from the repro package on first bind. */
static struct {
    int ready;
    PyObject *Work, *Spl, *Sleep, *WaitSignal;       /* command types */
    PyObject *ProcessError;
    PyObject *st_new, *st_alive, *st_done, *st_failed; /* process states */
    PyObject *nic_receive;      /* unbound NIC methods */
    PyObject *nic_rx_pull, *nic_rx_pull_many, *nic_rx_pending;
    PyObject *line_request;     /* unbound InterruptLine.request */
    PyObject *ip_dispatch;      /* unbound IPLayer._dispatch */
    PyObject *router_out_transmit;
    PyObject *gen_ticks[3];     /* unbound _tick: constant/poisson/bursty */
    PyObject *lat_observe;      /* unbound LatencyRecorder.observe */
    PyObject *Packet;           /* exact packet type */
    PyObject *packet_ids;       /* net.packet._packet_ids (count object) */
    PyObject *CpuTask;          /* hw.cpu.CpuTask type */
    PyObject *Signal;           /* sim.signals.Signal type */
    long long min_coalesce_ns;  /* drivers.hybrid.MIN_COALESCE_NS */
    PyObject *ctrl_try_deliver; /* unbound InterruptController method */
    PyObject *kinds[TK_COUNT];  /* trace.buffer record-kind constants */
    PyObject *empty_tuple;
    PyObject *deque_append, *deque_popleft;  /* unbound deque methods */
    PyObject *s_no_route, *s_arp_failure;    /* interned drop labels */
    Py_ssize_t off_work_cycles, off_spl_level, off_sleep_ns, off_wait_signal;
    Py_ssize_t off_counter_value;                      /* Counter.value */
    Py_ssize_t off_pk[14];      /* Packet slots, declaration order */
    Py_ssize_t off_pool_enabled, off_pool_max_free, off_pool_allocated,
        off_pool_reused, off_pool_released, off_pool_free;
    Py_ssize_t off_route_network, off_route_prefix, off_route_interface;
} pps;

/* Packet slot indexes (declaration order in net/packet.py). */
enum {
    PK_packet_id, PK_src, PK_dst, PK_src_port, PK_dst_port, PK_protocol,
    PK_payload_bytes, PK_created_ns, PK_nic_arrival_ns, PK_transmitted_ns,
    PK_dropped_at, PK_corrupted, PK_flow, PK__pooled
};

/* ---------------- attribute access helpers ------------------------ */

/* Slot (T_OBJECT_EX member) access for __slots__ classes. */
static inline PyObject *  /* borrowed; NULL when unset (no error) */
slot_get(PyObject *obj, Py_ssize_t offset)
{
    return *(PyObject **)((char *)obj + offset);
}

static inline void
slot_set(PyObject *obj, Py_ssize_t offset, PyObject *value) /* steals */
{
    PyObject **addr = (PyObject **)((char *)obj + offset);
    PyObject *old = *addr;
    *addr = value;
    Py_XDECREF(old);
}

/* Offset of the writable object slot ``name`` on ``type``, or 0 when
 * ``name`` is no such slot (0 is never one: the refcount lives there). */
static Py_ssize_t
member_offset(PyTypeObject *type, PyObject *name)
{
    PyObject *descr = _PyType_Lookup(type, name);  /* borrowed */
    PyMemberDef *m;
    if (descr == NULL || Py_TYPE(descr) != &PyMemberDescr_Type)
        return 0;
    m = ((PyMemberDescrObject *)descr)->d_member;
    return m->type == T_OBJECT_EX && !(m->flags & READONLY) ? m->offset : 0;
}

static Py_ssize_t
slot_offset(PyObject *type, const char *name)
{
    PyObject *key = PyUnicode_InternFromString(name);
    Py_ssize_t off;
    if (key == NULL)
        return -1;
    off = member_offset((PyTypeObject *)type, key);
    Py_DECREF(key);
    if (off == 0) {
        PyErr_Format(PyExc_TypeError,
                     "packetpath: %s is not a slot member", name);
        return -1;
    }
    return off;
}

/* The engine classes (Process/CpuTask, CPU, InterruptLine, NIC and the
 * queues) keep their data in __slots__; their instance __dict__ holds
 * only the entry points pp_bind shadows methods with. The accessors
 * below (gd, gdr, sd, gll, sll) therefore resolve each (type, key)
 * once: a slot member is read and written at its offset, and only a
 * name that is not a slot goes through the instance dict. Each key
 * caches up to PP_WAYS types, holding a reference to each so a freed
 * type's address can never alias a live one. */
#define PP_WAYS 8

static struct {
    PyTypeObject *type;
    Py_ssize_t off;     /* slot offset, or 0: use the instance dict */
} pp_slot_cache[PPK_COUNT][PP_WAYS];

/* Cache miss: fill the first free way, or replace the last one. */
static Py_ssize_t
pp_slot_resolve(PyTypeObject *type, int key)
{
    Py_ssize_t off = member_offset(type, pp_keys[key]);
    PyTypeObject *old;
    int i = 0;
    while (i < PP_WAYS - 1 && pp_slot_cache[key][i].type != NULL)
        i++;
    old = pp_slot_cache[key][i].type;
    Py_INCREF(type);
    pp_slot_cache[key][i].type = type;
    pp_slot_cache[key][i].off = off;
    Py_XDECREF(old);  /* last: freeing a type may run Python code */
    return off;
}

static inline Py_ssize_t
pp_slot_off(PyObject *obj, int key)
{
    PyTypeObject *type = Py_TYPE(obj);
    int i;
    for (i = 0; i < PP_WAYS && pp_slot_cache[key][i].type != NULL; i++) {
        if (pp_slot_cache[key][i].type == type)
            return pp_slot_cache[key][i].off;
    }
    return pp_slot_resolve(type, key);
}

/* Borrowed attribute read; NULL without error when absent. */
static inline PyObject *
gd(PyObject *obj, int key)
{
    Py_ssize_t off = pp_slot_off(obj, key);
    PyObject **dp;
    if (off)
        return slot_get(obj, off);
    dp = _PyObject_GetDictPtr(obj);
    if (dp != NULL && *dp != NULL)
        return PyDict_GetItemWithError(*dp, pp_keys[key]);
    return NULL;
}

/* gd() variant that raises AttributeError when the key is absent. */
static PyObject *  /* borrowed */
gdr(PyObject *obj, int key)
{
    PyObject *v = gd(obj, key);
    if (v == NULL && !PyErr_Occurred())
        PyErr_Format(PyExc_AttributeError, "packetpath: missing %U",
                     pp_keys[key]);
    return v;
}

static inline int
sd(PyObject *obj, int key, PyObject *value)
{
    Py_ssize_t off = pp_slot_off(obj, key);
    PyObject **dp;
    if (off) {
        Py_INCREF(value);
        slot_set(obj, off, value);
        return 0;
    }
    dp = _PyObject_GetDictPtr(obj);
    if (dp == NULL) {
        PyErr_SetString(PyExc_TypeError, "packetpath: object has no dict");
        return -1;
    }
    if (*dp == NULL) {
        *dp = PyDict_New();
        if (*dp == NULL)
            return -1;
    }
    return PyDict_SetItem(*dp, pp_keys[key], value);
}

static int
gll(PyObject *obj, int key, long long *out)
{
    PyObject *v = gd(obj, key);
    if (v == NULL) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_AttributeError, "packetpath: missing %U",
                         pp_keys[key]);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
sll(PyObject *obj, int key, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    int rc;
    if (v == NULL)
        return -1;
    rc = sd(obj, key, v);
    Py_DECREF(v);
    return rc;
}

/* Counter.increment(amount) inlined: value += amount (amount >= 0 at
 * every fast-path call site, so the negative-amount guard in
 * sim/probes.py cannot fire). counter may be Py_None (null probes). */
static int
counter_inc(PyObject *counter, long long amount)
{
    PyObject *cur, *next;
    long long v;
    if (counter == Py_None)
        return 0;
    cur = slot_get(counter, pps.off_counter_value);
    if (cur == NULL) {
        PyErr_SetString(PyExc_AttributeError, "counter value unset");
        return -1;
    }
    v = PyLong_AsLongLong(cur);
    if (v == -1 && PyErr_Occurred())
        return -1;
    next = PyLong_FromLongLong(v + amount);
    if (next == NULL)
        return -1;
    slot_set(counter, pps.off_counter_value, next);
    return 0;
}

/* Exact ports of repro.sim.units (all-integer arithmetic). */
static inline long long
pp_cycles_to_ns(long long cycles, long long hz)
{
    __int128 t;
    long long ns;
    if (cycles <= 0)
        return 0;
    t = (__int128)cycles * 1000000000LL + hz / 2;
    ns = (long long)(t / hz);
    return ns >= 1 ? ns : 1;
}

static inline long long
pp_ns_to_cycles(long long ns, long long hz)
{
    if (ns <= 0)
        return 0;
    return (long long)(((__int128)ns * hz + 500000000LL) / 1000000000LL);
}

/* ---------------- bound-method context ---------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *owner;   /* the object whose method this binding replaces */
    FastCoreObject *sim;
    PyObject *a, *b, *c;  /* family-specific extras (may be NULL) */
} PPCtx;

static PyTypeObject PPCtx_Type;

static int
ppctx_traverse(PPCtx *self, visitproc visit, void *arg)
{
    Py_VISIT(self->owner);
    Py_VISIT((PyObject *)self->sim);
    Py_VISIT(self->a);
    Py_VISIT(self->b);
    Py_VISIT(self->c);
    return 0;
}

static int
ppctx_clear(PPCtx *self)
{
    Py_CLEAR(self->owner);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->a);
    Py_CLEAR(self->b);
    Py_CLEAR(self->c);
    return 0;
}

static void
ppctx_dealloc(PPCtx *self)
{
    PyObject_GC_UnTrack(self);
    ppctx_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject PPCtx_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastcore._corec._PPCtx",
    .tp_basicsize = sizeof(PPCtx),
    .tp_dealloc = (destructor)ppctx_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)ppctx_traverse,
    .tp_clear = (inquiry)ppctx_clear,
};

static PPCtx *
ppctx_new(PyObject *owner, FastCoreObject *sim)
{
    PPCtx *ctx = PyObject_GC_New(PPCtx, &PPCtx_Type);
    if (ctx == NULL)
        return NULL;
    Py_INCREF(owner);
    ctx->owner = owner;
    Py_INCREF(sim);
    ctx->sim = sim;
    ctx->a = ctx->b = ctx->c = NULL;
    PyObject_GC_Track(ctx);
    return ctx;
}

/* ---- Compiled task bodies: proto + state machine ------------------
 *
 * A PPGen is a C state machine with the PyIter_Send calling convention
 * that replays one Python task body step for step: a driver's IRQ
 * handler (including the _handler_body prelude), or a kernel thread.
 *
 * IRQ handlers: a PPIrq proto is cached on an InterruptLine's instance
 * dict (``line._pp_irq``) by packetpath.install_started. The compiled
 * try_deliver uses it to build the handler CpuTask without entering
 * the interpreter.
 *
 * Kernel threads (the polling, NAPI, clocked and netisr threads and
 * the idle loops): packetpath.install shadows the owner's body factory
 * per instance (``polling._body`` and so on), so the task spawned in
 * Router.start runs a PPGen from its first resume.
 *
 * Rare branches (taps, screend, corrupted frames) fall back to pumping
 * the real Python ``ip.input_packet`` generator, so behaviour stays
 * bit-identical. */

/* Body kinds (which state machine a PPGen runs). */
enum {
    PPIRQ_BSD_RX,     /* BsdDriver._rx_handler */
    PPIRQ_BSD_TX,     /* BsdDriver._tx_handler */
    PPIRQ_HIGHIPL,    /* HighIplDriver._service_handler (both lines) */
    PPIRQ_POLLED_RX,  /* PolledDriver._rx_stub */
    PPIRQ_POLLED_TX,  /* PolledDriver._tx_stub */
    PPIRQ_HYBRID_RX,  /* HybridDriver._rx_stub */
    PPIRQ_HYBRID_TX,  /* HybridDriver._tx_stub */
    PPIRQ_SOFTNET,    /* ClassicIPInput._softirq_body */
    PPIRQ_CLOCK,      /* Kernel._clock_handler */
    /* Kernel threads: no line, no dispatch prelude. */
    PPT_POLL,         /* PollingSystem._body */
    PPT_NAPI,         /* HybridDriver._napi_body */
    PPT_CLOCKED,      /* ClockedPollingDriver._poll_body */
    PPT_NETISR,       /* ClassicIPInput._netisr_body */
    PPT_IDLE,         /* Kernel._idle_body */
};

typedef struct {
    PyObject_HEAD
    int kind;
    long long ipl;       /* line.ipl, frozen at proto creation */
    PyObject *line;      /* the InterruptLine; NULL for a thread */
    PyObject *owner;     /* the object whose body this is */
    PyObject *cpu;       /* controller.cpu; NULL for a thread */
    FastCoreObject *sim;
    PyObject *name;       /* "irq:<line.name>" */
    PyObject *work_label; /* "work:irq:<line.name>" */
    PyObject *key;        /* initial task _key tuple (ipl, CLASS_USER, 0) */
    PyObject *done_cb;    /* exit callback implementing _handler_done */
} PPIrq;

/* Flags of the shared drain sub-state (drivers/base.py drain). */
enum {
    DR_IPINTRQ = 1,  /* pull from dev.ipintrq.dequeue, not dev.nic.rx_pull */
    DR_BATCH = 2,    /* one dev.nic.rx_pull_many(quota) */
    DR_COUNT = 4,    /* count on dev.rx_packets_processed */
    DR_BOUND = 8,    /* quota: dr_limit */
    DR_LIVE = 16,    /* quota: dev.quota, re-read before every packet */
    DR_GATE = 32,    /* stop when dev.polling inhibits input */
    DR_ACK = 64,     /* acknowledge the proto's line before every pull */
};

typedef struct {
    PyObject_HEAD
    PPIrq *proto;
    PyObject *dev;    /* driver (or IP input) the drain and _tx_service use */
    PyObject *sub;    /* active Python sub-generator (yield-from) */
    PyObject *packet; /* in-flight packet (owned mirror of in_flight) */
    PyObject *batch;  /* pulled batch / due callouts (owned mirror) */
    PyObject *work;   /* reusable Work command (identity unobservable) */
    PyObject *wait;   /* reusable WaitSignal command, or NULL */
    PyObject *sleep;  /* reusable Sleep command, or NULL */
    long long c1, c2, c3; /* costs and periods the Python body holds in
                             locals, captured at the same resume */
    long long handled, moved, tsq;  /* handled: NAPI drained, clock index */
    long long dr_limit, dr_handled, dr_cycles;
    long long pass_start, offset, count;  /* polling pass */
    long long quota;  /* NAPI: the quota captured at start, if bounded */
    int state, ip_cont, ts_ret, dr_flags, dr_ret;
    int tsq_none, batch_pull, bounded, any_work, hooks, closed;
    int flag;         /* stub: the service-needed flag it sets */
} PPGenObject;

static PyTypeObject PPIrq_Type;
static PyTypeObject PPGen_Type;

/* Generator-send compatibility: PyIter_Send exists from 3.10 on. */
#if PY_VERSION_HEX < 0x030A0000
typedef enum { PYGEN_RETURN = 0, PYGEN_ERROR = -1, PYGEN_NEXT = 1 } PySendResult;
static PySendResult
PyIter_Send(PyObject *gen, PyObject *value, PyObject **result)
{
    PyObject *res = PyObject_CallMethod(gen, "send", "O", value);
    if (res != NULL) {
        *result = res;
        return PYGEN_NEXT;
    }
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyErr_Clear();
        *result = Py_None;
        Py_INCREF(Py_None);
        return PYGEN_RETURN;
    }
    *result = NULL;
    return PYGEN_ERROR;
}
#endif

static PySendResult ppgen_send(PPGenObject *g, PyObject *value,
                               PyObject **pres);

/* Resume a Python generator. Under --profile its time goes to the
 * python bucket, like a Python event callback's (fire_call): compiled
 * code resuming a Python body is still Python running. */
static PySendResult
pp_send_py(PyObject *gen, PyObject *value, PyObject **pres)
{
    double t0;
    PySendResult sr;
    if (!prof_enabled || prof_py_depth)
        return PyIter_Send(gen, value, pres);
    prof_py_depth = 1;
    t0 = prof_now();
    sr = PyIter_Send(gen, value, pres);
    prof_py_s += prof_now() - t0;
    prof_py_calls += 1;
    prof_py_depth = 0;
    return sr;
}

/* ---------------- symbol initialisation --------------------------- */

static PyObject *
pp_import_attr(const char *module, const char *attr)
{
    PyObject *mod = PyImport_ImportModule(module);
    PyObject *obj;
    if (mod == NULL)
        return NULL;
    obj = PyObject_GetAttrString(mod, attr);
    Py_DECREF(mod);
    return obj;
}

static int
pp_init_symbols(void)
{
    static const char *key_names[PPK_COUNT] = {
#define PP_NAME(n) #n,
        PP_KEYS(PP_NAME)
#undef PP_NAME
    };
    PyObject *mod, *tmp;
    int i;
    if (pps.ready)
        return 0;
    for (i = 0; i < PPK_COUNT; i++) {
        pp_keys[i] = PyUnicode_InternFromString(key_names[i]);
        if (pp_keys[i] == NULL)
            return -1;
    }
    if (PyType_Ready(&PPCtx_Type) < 0)
        return -1;

    mod = PyImport_ImportModule("repro.sim.process");
    if (mod == NULL)
        return -1;
    pps.Work = PyObject_GetAttrString(mod, "Work");
    pps.Sleep = PyObject_GetAttrString(mod, "Sleep");
    pps.WaitSignal = PyObject_GetAttrString(mod, "WaitSignal");
    pps.st_new = PyObject_GetAttrString(mod, "NEW");
    pps.st_alive = PyObject_GetAttrString(mod, "ALIVE");
    pps.st_done = PyObject_GetAttrString(mod, "DONE");
    pps.st_failed = PyObject_GetAttrString(mod, "FAILED");
    Py_DECREF(mod);
    if (pps.Work == NULL || pps.Sleep == NULL || pps.WaitSignal == NULL ||
        pps.st_new == NULL || pps.st_alive == NULL || pps.st_done == NULL ||
        pps.st_failed == NULL)
        return -1;
    pps.ProcessError = pp_import_attr("repro.sim.errors", "ProcessError");
    if (pps.ProcessError == NULL)
        return -1;
    pps.Spl = pp_import_attr("repro.hw.cpu", "Spl");
    if (pps.Spl == NULL)
        return -1;
    pps.off_work_cycles = slot_offset(pps.Work, "cycles");
    pps.off_spl_level = slot_offset(pps.Spl, "level");
    pps.off_sleep_ns = slot_offset(pps.Sleep, "ns");
    pps.off_wait_signal = slot_offset(pps.WaitSignal, "signal");
    if (pps.off_work_cycles < 0 || pps.off_spl_level < 0 ||
        pps.off_sleep_ns < 0 || pps.off_wait_signal < 0)
        return -1;
    tmp = pp_import_attr("repro.sim.probes", "Counter");
    if (tmp == NULL)
        return -1;
    pps.off_counter_value = slot_offset(tmp, "value");
    Py_DECREF(tmp);
    if (pps.off_counter_value < 0)
        return -1;

    /* --- packet-path symbols (NIC / queues / net / workloads) ------ */
    tmp = pp_import_attr("repro.hw.nic", "NIC");
    if (tmp == NULL)
        return -1;
    pps.nic_receive = PyObject_GetAttrString(tmp, "receive_from_wire");
    pps.nic_rx_pull = PyObject_GetAttrString(tmp, "rx_pull");
    pps.nic_rx_pull_many = PyObject_GetAttrString(tmp, "rx_pull_many");
    pps.nic_rx_pending = PyObject_GetAttrString(tmp, "rx_pending");
    Py_DECREF(tmp);
    if (pps.nic_receive == NULL || pps.nic_rx_pull == NULL ||
        pps.nic_rx_pull_many == NULL || pps.nic_rx_pending == NULL)
        return -1;
    tmp = pp_import_attr("repro.hw.interrupts", "InterruptLine");
    if (tmp == NULL)
        return -1;
    pps.line_request = PyObject_GetAttrString(tmp, "request");
    Py_DECREF(tmp);
    if (pps.line_request == NULL)
        return -1;
    tmp = pp_import_attr("repro.net.ip", "IPLayer");
    if (tmp == NULL)
        return -1;
    pps.ip_dispatch = PyObject_GetAttrString(tmp, "_dispatch");
    Py_DECREF(tmp);
    if (pps.ip_dispatch == NULL)
        return -1;
    tmp = pp_import_attr("repro.experiments.topology", "Router");
    if (tmp == NULL)
        return -1;
    pps.router_out_transmit = PyObject_GetAttrString(tmp, "_on_output_transmit");
    Py_DECREF(tmp);
    if (pps.router_out_transmit == NULL)
        return -1;
    tmp = pp_import_attr("repro.metrics.latency", "LatencyRecorder");
    if (tmp == NULL)
        return -1;
    pps.lat_observe = PyObject_GetAttrString(tmp, "observe");
    Py_DECREF(tmp);
    if (pps.lat_observe == NULL)
        return -1;
    {
        static const char *gen_names[3] = {
            "ConstantRateGenerator", "PoissonGenerator", "BurstyGenerator"
        };
        for (i = 0; i < 3; i++) {
            tmp = pp_import_attr("repro.workloads.generators", gen_names[i]);
            if (tmp == NULL)
                return -1;
            pps.gen_ticks[i] = PyObject_GetAttrString(tmp, "_tick");
            Py_DECREF(tmp);
            if (pps.gen_ticks[i] == NULL)
                return -1;
        }
    }
    pps.Packet = pp_import_attr("repro.net.packet", "Packet");
    if (pps.Packet == NULL)
        return -1;
    pps.packet_ids = pp_import_attr("repro.net.packet", "_packet_ids");
    if (pps.packet_ids == NULL)
        return -1;
    {
        static const char *pk_names[14] = {
            "packet_id", "src", "dst", "src_port", "dst_port", "protocol",
            "payload_bytes", "created_ns", "nic_arrival_ns",
            "transmitted_ns", "dropped_at", "corrupted", "flow", "_pooled"
        };
        for (i = 0; i < 14; i++) {
            pps.off_pk[i] = slot_offset(pps.Packet, pk_names[i]);
            if (pps.off_pk[i] < 0)
                return -1;
        }
    }
    tmp = pp_import_attr("repro.net.packet", "PacketPool");
    if (tmp == NULL)
        return -1;
    pps.off_pool_enabled = slot_offset(tmp, "enabled");
    pps.off_pool_max_free = slot_offset(tmp, "max_free");
    pps.off_pool_allocated = slot_offset(tmp, "allocated");
    pps.off_pool_reused = slot_offset(tmp, "reused");
    pps.off_pool_released = slot_offset(tmp, "released");
    pps.off_pool_free = slot_offset(tmp, "_free");
    Py_DECREF(tmp);
    if (pps.off_pool_enabled < 0 || pps.off_pool_max_free < 0 ||
        pps.off_pool_allocated < 0 || pps.off_pool_reused < 0 ||
        pps.off_pool_released < 0 || pps.off_pool_free < 0)
        return -1;
    tmp = pp_import_attr("repro.net.routing", "Route");
    if (tmp == NULL)
        return -1;
    pps.off_route_network = slot_offset(tmp, "network");
    pps.off_route_prefix = slot_offset(tmp, "prefix_len");
    pps.off_route_interface = slot_offset(tmp, "interface");
    Py_DECREF(tmp);
    if (pps.off_route_network < 0 || pps.off_route_prefix < 0 ||
        pps.off_route_interface < 0)
        return -1;
    tmp = pp_import_attr("collections", "deque");
    if (tmp == NULL)
        return -1;
    pps.deque_append = PyObject_GetAttrString(tmp, "append");
    pps.deque_popleft = PyObject_GetAttrString(tmp, "popleft");
    Py_DECREF(tmp);
    if (pps.deque_append == NULL || pps.deque_popleft == NULL)
        return -1;
    pps.s_no_route = PyUnicode_InternFromString("ip.no_route");
    pps.s_arp_failure = PyUnicode_InternFromString("ip.arp_failure");
    if (pps.s_no_route == NULL || pps.s_arp_failure == NULL)
        return -1;

    /* --- IRQ dispatch symbols ------------------------------------- */
    if (PyType_Ready(&PPIrq_Type) < 0 || PyType_Ready(&PPGen_Type) < 0)
        return -1;
    pps.CpuTask = pp_import_attr("repro.hw.cpu", "CpuTask");
    if (pps.CpuTask == NULL)
        return -1;
    pps.Signal = pp_import_attr("repro.sim.signals", "Signal");
    if (pps.Signal == NULL)
        return -1;
    tmp = pp_import_attr("repro.drivers.hybrid", "MIN_COALESCE_NS");
    if (tmp == NULL)
        return -1;
    pps.min_coalesce_ns = PyLong_AsLongLong(tmp);
    Py_DECREF(tmp);
    if (pps.min_coalesce_ns == -1 && PyErr_Occurred())
        return -1;
    tmp = pp_import_attr("repro.hw.interrupts", "InterruptController");
    if (tmp == NULL)
        return -1;
    pps.ctrl_try_deliver = PyObject_GetAttrString(tmp, "try_deliver");
    Py_DECREF(tmp);
    if (pps.ctrl_try_deliver == NULL)
        return -1;
    {
        static const char *kind_names[TK_COUNT] = {
#define PP_KIND_NAME(n) #n,
            PP_KINDS(PP_KIND_NAME)
#undef PP_KIND_NAME
        };
        for (i = 0; i < TK_COUNT; i++) {
            pps.kinds[i] = pp_import_attr("repro.trace.buffer", kind_names[i]);
            if (pps.kinds[i] == NULL)
                return -1;
        }
    }
    pps.empty_tuple = PyTuple_New(0);
    if (pps.empty_tuple == NULL)
        return -1;

    pps.ready = 1;
    return 0;
}

/* ---------------- trace records ----------------------------------- */

/* ``trace.<meth>(*args)`` on an armed TraceBuffer: its own record
 * path (record / packet_drop / packet_deliver), so the ring, the site
 * ids and the timeline fold have one implementation for both backends.
 * Each hook mirrors the Python idiom ``trace = obj.trace; if trace is
 * not None: trace.record(...)``: the caller reads ``trace`` where the
 * Python body does and passes the Python call's arguments. A NULL
 * argument is a lookup the caller made that failed (error set). */
static int
pp_trace(PyObject *trace, int meth, int nargs, ...)
{
    PyObject *stack[5], *r;
    va_list va;
    int i, ok = 1;
    va_start(va, nargs);
    for (i = 1; i <= nargs; i++)
        ok &= (stack[i] = va_arg(va, PyObject *)) != NULL;
    va_end(va);
    if (!ok)
        return -1;
    stack[0] = trace;
    Py_INCREF(trace);  /* the owner's dict only lends it */
    r = PyObject_VectorcallMethod(pp_keys[meth], stack, nargs + 1, NULL);
    Py_DECREF(trace);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* trace.record(kind, site, a) with an integer payload. */
static int
pp_record_ll(PyObject *trace, int kind, PyObject *site, long long a)
{
    PyObject *ao = site ? PyLong_FromLongLong(a) : NULL;
    int rc = pp_trace(trace, PPK_record, 3, pps.kinds[kind], site, ao);
    Py_XDECREF(ao);
    return rc;
}

/* ---------------- CPU engine (hw/cpu.py, sim/process.py) ---------- */

static PyObject *pp_deliver_impl(PPCtx *ctx, PyObject *value);
static int pp_deque_push(PyObject *dq, PyObject *item);

/* state comparison: identity first (states are assigned from the
 * module constants), value equality as a safety net. */
static int
pp_state_is(PyObject *state, PyObject *expected)
{
    if (state == expected)
        return 1;
    return PyObject_RichCompareBool(state, expected, Py_EQ) == 1;
}

/* The context of a compiled deliver binding, or NULL for anything
 * else (including NULL). */
static inline PPCtx *
pp_deliver_ctx(PyObject *dfn)
{
    PyObject *self;
    if (dfn == NULL || Py_TYPE(dfn) != &PyCFunction_Type)
        return NULL;
    self = PyCFunction_GET_SELF(dfn);
    return self != NULL && Py_TYPE(self) == &PPCtx_Type ? (PPCtx *)self
                                                        : NULL;
}

/* Process._finish: swap the exit-callback list for a fresh one, then
 * run the detached callbacks in order.
 *
 * Every caller has already set the state to DONE or FAILED, where
 * deliver is a no-op in both implementations, so the task's compiled
 * deliver binding is dropped first. The binding holds the task through
 * its PPCtx: left in place, every finished handler task would be a
 * reference cycle that only the cyclic GC frees. Whoever called
 * pp_deliver_impl holds the binding until it returns. */
static int
pp_finish(PyObject *proc)
{
    PyObject *cbs, *fresh, *dfn = gd(proc, PPK_deliver);
    PPCtx *bound = pp_deliver_ctx(dfn);
    Py_ssize_t i;
    if (dfn == NULL && PyErr_Occurred())
        return -1;
    if (bound != NULL && bound->owner == proc &&
        PyDict_DelItem(*_PyObject_GetDictPtr(proc), pp_keys[PPK_deliver]) < 0)
        return -1;
    cbs = gd(proc, PPK__exit_callbacks);
    if (cbs == NULL || !PyList_Check(cbs)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: _exit_callbacks missing");
        return -1;
    }
    Py_INCREF(cbs);
    fresh = PyList_New(0);
    if (fresh == NULL || sd(proc, PPK__exit_callbacks, fresh) < 0) {
        Py_XDECREF(fresh);
        Py_DECREF(cbs);
        return -1;
    }
    Py_DECREF(fresh);
    for (i = 0; i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = PyList_GET_ITEM(cbs, i);
        PyObject *res;
        Py_INCREF(cb);
        res = PyObject_CallOneArg(cb, proc);
        Py_DECREF(cb);
        if (res == NULL) {
            Py_DECREF(cbs);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(cbs);
    return 0;
}

/* CpuTask._refresh_key */
static int
pp_refresh_key(PyObject *task)
{
    long long base, spl, pc, rseq, eff;
    PyObject *key;
    if (gll(task, PPK_base_ipl, &base) < 0 ||
        gll(task, PPK_spl_level, &spl) < 0 ||
        gll(task, PPK_priority_class, &pc) < 0 ||
        gll(task, PPK__ready_seq, &rseq) < 0)
        return -1;
    eff = base >= spl ? base : spl;
    if (sll(task, PPK__eff_ipl, eff) < 0)
        return -1;
    key = Py_BuildValue("(LLL)", eff, pc, -rseq);
    if (key == NULL)
        return -1;
    if (sd(task, PPK__key, key) < 0) {
        Py_DECREF(key);
        return -1;
    }
    Py_DECREF(key);
    return 0;
}

/* CPU._pick: first-max wins over insertion order; the _key tuples are
 * int 3-tuples, so an unpacked lexicographic long-long compare is
 * equivalent to Python's tuple >. Returns a borrowed task or NULL
 * (none runnable, or error with the exception set). */
static PyObject *
pp_pick(PyObject *remaining)
{
    PyObject *task, *val, *best = NULL;
    long long b0 = 0, b1 = 0, b2 = 0;
    Py_ssize_t pos = 0;
    while (PyDict_Next(remaining, &pos, &task, &val)) {
        PyObject *kt = gd(task, PPK__key);
        long long k0, k1, k2;
        if (kt == NULL || !PyTuple_Check(kt) || PyTuple_GET_SIZE(kt) != 3) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError,
                                "packetpath: task _key missing");
            return NULL;
        }
        k0 = PyLong_AsLongLong(PyTuple_GET_ITEM(kt, 0));
        k1 = PyLong_AsLongLong(PyTuple_GET_ITEM(kt, 1));
        k2 = PyLong_AsLongLong(PyTuple_GET_ITEM(kt, 2));
        if (PyErr_Occurred())
            return NULL;
        if (best == NULL || k0 > b0 ||
            (k0 == b0 && (k1 > b1 || (k1 == b1 && k2 > b2)))) {
            best = task;
            b0 = k0;
            b1 = k1;
            b2 = k2;
        }
    }
    return best;
}

/* CPU._notify_ipl */
static int
pp_notify_ipl(PyObject *cpu)
{
    PyObject *current = gd(cpu, PPK__current);
    PyObject *obs, *iplobj;
    long long ipl = 0;
    Py_ssize_t i;
    if (current != NULL && current != Py_None) {
        if (gll(current, PPK__eff_ipl, &ipl) < 0)
            return -1;
    }
    obs = gd(cpu, PPK_ipl_observers);
    if (obs == NULL || !PyList_Check(obs)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: ipl_observers missing");
        return -1;
    }
    Py_INCREF(obs);
    iplobj = PyLong_FromLongLong(ipl);
    if (iplobj == NULL) {
        Py_DECREF(obs);
        return -1;
    }
    for (i = 0; i < PyList_GET_SIZE(obs); i++) {
        PyObject *cb = PyList_GET_ITEM(obs, i);
        PyObject *res;
        Py_INCREF(cb);
        res = PyObject_CallOneArg(cb, iplobj);
        Py_DECREF(cb);
        if (res == NULL) {
            Py_DECREF(iplobj);
            Py_DECREF(obs);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(iplobj);
    Py_DECREF(obs);
    return 0;
}

/* CPU._stop_current(account) */
static int
pp_stop_current(PyObject *cpu, FastCoreObject *sim, int account)
{
    PyObject *task = gd(cpu, PPK__current);
    PyObject *comp;
    if (task == NULL) {
        if (PyErr_Occurred())
            return -1;
        PyErr_SetString(PyExc_AttributeError, "packetpath: _current missing");
        return -1;
    }
    if (task == Py_None)
        return 0;
    Py_INCREF(task);
    comp = gd(cpu, PPK__completion);
    if (comp != NULL && comp != Py_None) {
        if (Py_TYPE(comp) == &CEvent_Type) {
            if (((CEvent *)comp)->state == ST_PENDING)
                cancel_event(sim, (CEvent *)comp);
        } else {
            PyObject *res = PyObject_CallMethod((PyObject *)sim, "cancel",
                                                "O", comp);
            if (res == NULL)
                goto fail;
            Py_DECREF(res);
        }
        if (sd(cpu, PPK__completion, Py_None) < 0)
            goto fail;
    }
    if (account) {
        long long chunk, elapsed;
        if (gll(cpu, PPK__chunk_started, &chunk) < 0)
            goto fail;
        elapsed = sim->now_ns - chunk;
        if (elapsed > 0) {
            PyObject *remaining = gd(cpu, PPK__remaining);
            PyObject *cur, *obs, *elobj;
            long long hz, used, busy;
            Py_ssize_t i;
            if (remaining == NULL || !PyDict_Check(remaining))
                goto fail_attr;
            cur = PyDict_GetItemWithError(remaining, task);
            if (cur != NULL) {
                long long r = PyLong_AsLongLong(cur);
                PyObject *upd;
                if (r == -1 && PyErr_Occurred())
                    goto fail;
                r -= elapsed;
                if (r < 0)
                    r = 0;
                upd = PyLong_FromLongLong(r);
                if (upd == NULL ||
                    PyDict_SetItem(remaining, task, upd) < 0) {
                    Py_XDECREF(upd);
                    goto fail;
                }
                Py_DECREF(upd);
            } else if (PyErr_Occurred()) {
                goto fail;
            }
            if (gll(cpu, PPK_hz, &hz) < 0 ||
                gll(task, PPK_cycles_used, &used) < 0 ||
                gll(cpu, PPK_busy_ns, &busy) < 0)
                goto fail;
            if (sll(task, PPK_cycles_used,
                    used + pp_ns_to_cycles(elapsed, hz)) < 0 ||
                sll(cpu, PPK_busy_ns, busy + elapsed) < 0)
                goto fail;
            obs = gd(cpu, PPK_account_observers);
            if (obs == NULL || !PyList_Check(obs))
                goto fail_attr;
            Py_INCREF(obs);
            elobj = PyLong_FromLongLong(elapsed);
            if (elobj == NULL) {
                Py_DECREF(obs);
                goto fail;
            }
            for (i = 0; i < PyList_GET_SIZE(obs); i++) {
                PyObject *cb = PyList_GET_ITEM(obs, i);
                PyObject *res;
                Py_INCREF(cb);
                res = PyObject_CallFunctionObjArgs(cb, task, elobj, NULL);
                Py_DECREF(cb);
                if (res == NULL) {
                    Py_DECREF(elobj);
                    Py_DECREF(obs);
                    goto fail;
                }
                Py_DECREF(res);
            }
            Py_DECREF(elobj);
            Py_DECREF(obs);
        }
    }
    if (sd(cpu, PPK__current, Py_None) < 0)
        goto fail;
    Py_DECREF(task);
    return 0;
fail_attr:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_AttributeError,
                        "packetpath: CPU attribute missing");
fail:
    Py_DECREF(task);
    return -1;
}

/* CPU._reschedule, recording CPU_IDLE/CPU_RUN when a trace is armed. */
static int
pp_reschedule(PyObject *cpu, FastCoreObject *sim)
{
    PyObject *remaining, *best, *current, *curt, *complete_fn, *cb_args;
    PyObject *label, *remobj, *ev, *trace;
    long long eff, hz, remns;
    int complete_owned = 0;
    remaining = gd(cpu, PPK__remaining);
    if (remaining == NULL || !PyDict_Check(remaining)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: _remaining missing");
        return -1;
    }
    best = pp_pick(remaining);
    if (best == NULL && PyErr_Occurred())
        return -1;
    current = gd(cpu, PPK__current);
    if (current == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: _current missing");
        return -1;
    }
    curt = (current == Py_None) ? NULL : current;
    if (best == curt)
        return 0;
    Py_XINCREF(best);
    if (curt != NULL) {
        long long pre;
        if (gll(cpu, PPK_preemptions, &pre) < 0 ||
            sll(cpu, PPK_preemptions, pre + 1) < 0 ||
            pp_stop_current(cpu, sim, 1) < 0) {
            Py_XDECREF(best);
            return -1;
        }
    }
    if (best == NULL) {
        trace = gdr(cpu, PPK_trace);
        if (trace == NULL ||
            (trace != Py_None &&
             pp_trace(trace, PPK_record, 2, pps.kinds[TK_CPU_IDLE],
                      gdr(cpu, PPK_name)) < 0))
            return -1;
        return pp_notify_ipl(cpu);
    }
    if (gll(best, PPK__eff_ipl, &eff) < 0 || gll(cpu, PPK_hz, &hz) < 0)
        goto fail;
    if (eff == 0) {
        long long csc;
        PyObject *last;
        if (gll(cpu, PPK_context_switch_cycles, &csc) < 0)
            goto fail;
        last = gd(cpu, PPK__last_thread);
        if (last == NULL)
            goto fail;
        if (csc > 0 && last != best && last != Py_None) {
            long long r, sw;
            PyObject *upd;
            remaining = gd(cpu, PPK__remaining);
            remobj = PyDict_GetItemWithError(remaining, best);
            if (remobj == NULL)
                goto fail_key;
            r = PyLong_AsLongLong(remobj);
            if (r == -1 && PyErr_Occurred())
                goto fail;
            upd = PyLong_FromLongLong(r + pp_cycles_to_ns(csc, hz));
            if (upd == NULL || PyDict_SetItem(remaining, best, upd) < 0) {
                Py_XDECREF(upd);
                goto fail;
            }
            Py_DECREF(upd);
            if (gll(cpu, PPK_switches, &sw) < 0 ||
                sll(cpu, PPK_switches, sw + 1) < 0)
                goto fail;
        }
        if (sd(cpu, PPK__last_thread, best) < 0)
            goto fail;
    }
    if (sd(cpu, PPK__current, best) < 0 ||
        sll(cpu, PPK__chunk_started, sim->now_ns) < 0)
        goto fail;
    trace = gdr(cpu, PPK_trace);
    if (trace == NULL)
        goto fail;
    if (trace != Py_None) {
        PyObject *name = gdr(best, PPK_name);
        if (name == NULL ||
            pp_trace(trace, PPK_record, 3, pps.kinds[TK_CPU_RUN], name,
                     gdr(best, PPK__eff_ipl)) < 0)
            goto fail;
    }
    remaining = gd(cpu, PPK__remaining);
    remobj = PyDict_GetItemWithError(remaining, best);
    if (remobj == NULL)
        goto fail_key;
    remns = PyLong_AsLongLong(remobj);
    if (remns == -1 && PyErr_Occurred())
        goto fail;
    complete_fn = gd(cpu, PPK__complete);
    if (complete_fn == NULL) {
        if (PyErr_Occurred())
            goto fail;
        complete_fn = PyObject_GetAttr(cpu, pp_keys[PPK__complete]);
        if (complete_fn == NULL)
            goto fail;
        complete_owned = 1;
    }
    label = gd(best, PPK__work_label);
    if (label == NULL && PyErr_Occurred())
        goto fail_complete;
    cb_args = PyTuple_Pack(1, best);
    if (cb_args == NULL)
        goto fail_complete;
    ev = schedule_common(sim, remns, complete_fn, cb_args, label);
    if (ev == NULL)
        goto fail_complete;
    if (complete_owned)
        Py_DECREF(complete_fn);
    if (sd(cpu, PPK__completion, ev) < 0) {
        Py_DECREF(ev);
        goto fail;
    }
    Py_DECREF(ev);
    Py_DECREF(best);
    return 0;
fail_key:
    if (!PyErr_Occurred())
        PyErr_SetObject(PyExc_KeyError, best);
    goto fail;
fail_complete:
    if (complete_owned)
        Py_DECREF(complete_fn);
fail:
    Py_XDECREF(best);
    return -1;
}

/* CPU.add_work */
static int
pp_add_work(PyObject *cpu, FastCoreObject *sim, PyObject *task,
            long long cycles)
{
    PyObject *remaining, *cur;
    long long hz, ns;
    if (gll(cpu, PPK_hz, &hz) < 0)
        return -1;
    ns = pp_cycles_to_ns(cycles, hz);
    remaining = gd(cpu, PPK__remaining);
    if (remaining == NULL || !PyDict_Check(remaining)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: _remaining missing");
        return -1;
    }
    cur = PyDict_GetItemWithError(remaining, task);
    if (cur != NULL) {
        long long r = PyLong_AsLongLong(cur);
        PyObject *upd;
        if (r == -1 && PyErr_Occurred())
            return -1;
        upd = PyLong_FromLongLong(r + ns);
        if (upd == NULL || PyDict_SetItem(remaining, task, upd) < 0) {
            Py_XDECREF(upd);
            return -1;
        }
        Py_DECREF(upd);
    } else {
        long long seq;
        PyObject *nsobj;
        if (PyErr_Occurred())
            return -1;
        if (gll(cpu, PPK__seq, &seq) < 0 ||
            sll(cpu, PPK__seq, seq + 1) < 0 ||
            sll(task, PPK__ready_seq, seq + 1) < 0 ||
            pp_refresh_key(task) < 0)
            return -1;
        nsobj = PyLong_FromLongLong(ns);
        if (nsobj == NULL || PyDict_SetItem(remaining, task, nsobj) < 0) {
            Py_XDECREF(nsobj);
            return -1;
        }
        Py_DECREF(nsobj);
    }
    return pp_reschedule(cpu, sim);
}

/* Process.deliver + CpuTask._dispatch fused: resume the generator body
 * with PyIter_Send and dispatch its commands without re-entering the
 * interpreter for the common Work/Spl/Sleep/WaitSignal cases. The Spl
 * branch loops (Python recurses through deliver) and re-checks the
 * lifecycle state at the top, exactly like the recursive call would. */
static PyObject *
pp_deliver_impl(PPCtx *ctx, PyObject *value)
{
    PyObject *task = ctx->owner;
    FastCoreObject *sim = ctx->sim;
    for (;;) {
        PyObject *state, *body, *command;
        PySendResult sr;
        state = gd(task, PPK_state);
        if (state == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError,
                                "packetpath: process state missing");
            return NULL;
        }
        if (pp_state_is(state, pps.st_new)) {
            if (sd(task, PPK_state, pps.st_alive) < 0)
                return NULL;
        } else if (!pp_state_is(state, pps.st_alive)) {
            /* A stale wake-up for a process killed meanwhile. */
            Py_RETURN_NONE;
        }
        if (sd(task, PPK__waiting_on, Py_None) < 0)
            return NULL;
        body = gd(task, PPK__body);
        if (body == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError,
                                "packetpath: process body missing");
            return NULL;
        }
        Py_INCREF(body);
        if (Py_TYPE(body) == &PPGen_Type)
            sr = ppgen_send((PPGenObject *)body, value, &command);
        else
            sr = pp_send_py(body, value, &command);
        Py_DECREF(body);
        if (sr == PYGEN_RETURN) {
            Py_XDECREF(command);
            if (sd(task, PPK_state, pps.st_done) < 0 ||
                pp_finish(task) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        if (sr == PYGEN_ERROR) {
            PyObject *t, *v, *tb, *name, *msg, *perr;
            PyErr_Fetch(&t, &v, &tb);
            PyErr_NormalizeException(&t, &v, &tb);
            if (tb != NULL)
                PyException_SetTraceback(v, tb);
            if (sd(task, PPK_state, pps.st_failed) < 0 ||
                sd(task, PPK_exception, v ? v : Py_None) < 0 ||
                pp_finish(task) < 0) {
                /* _finish (or the stores) raised during exception
                 * handling: chain the original as __context__. */
                PyObject *nt, *nv, *ntb;
                PyErr_Fetch(&nt, &nv, &ntb);
                PyErr_NormalizeException(&nt, &nv, &ntb);
                if (nv != NULL && v != NULL) {
                    Py_INCREF(v);
                    PyException_SetContext(nv, v);
                }
                PyErr_Restore(nt, nv, ntb);
                Py_XDECREF(t);
                Py_XDECREF(v);
                Py_XDECREF(tb);
                return NULL;
            }
            name = gd(task, PPK_name);
            msg = PyUnicode_FromFormat("process %U failed at t=%lld ns",
                                       name ? name : Py_None, sim->now_ns);
            if (msg == NULL)
                goto err_cleanup;
            perr = PyObject_CallOneArg(pps.ProcessError, msg);
            Py_DECREF(msg);
            if (perr == NULL)
                goto err_cleanup;
            if (v != NULL) {
                Py_INCREF(v);
                PyException_SetCause(perr, v);
                Py_INCREF(v);
                PyException_SetContext(perr, v);
            }
            PyErr_SetObject(pps.ProcessError, perr);
            Py_DECREF(perr);
        err_cleanup:
            Py_XDECREF(t);
            Py_XDECREF(v);
            Py_XDECREF(tb);
            return NULL;
        }
        /* PYGEN_NEXT: dispatch the command. */
        if (Py_TYPE(command) == (PyTypeObject *)pps.Work) {
            PyObject *cycobj = slot_get(command, pps.off_work_cycles);
            PyObject *cpu;
            long long cycles;
            if (cycobj == NULL) {
                Py_DECREF(command);
                PyErr_SetString(PyExc_AttributeError, "Work cycles unset");
                return NULL;
            }
            cycles = PyLong_AsLongLong(cycobj);
            Py_DECREF(command);
            if (cycles == -1 && PyErr_Occurred())
                return NULL;
            cpu = gd(task, PPK_cpu);
            if (cpu == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_AttributeError,
                                    "packetpath: task cpu missing");
                return NULL;
            }
            if (pp_add_work(cpu, sim, task, cycles) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        if (Py_TYPE(command) == (PyTypeObject *)pps.Spl) {
            PyObject *level = slot_get(command, pps.off_spl_level);
            PyObject *cpu;
            long long old_eff, new_eff;
            if (level == NULL) {
                Py_DECREF(command);
                PyErr_SetString(PyExc_AttributeError, "Spl level unset");
                return NULL;
            }
            if (gll(task, PPK__eff_ipl, &old_eff) < 0 ||
                sd(task, PPK_spl_level, level) < 0) {
                Py_DECREF(command);
                return NULL;
            }
            Py_DECREF(command);
            if (pp_refresh_key(task) < 0)
                return NULL;
            cpu = gd(task, PPK_cpu);
            if (cpu == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_AttributeError,
                                    "packetpath: task cpu missing");
                return NULL;
            }
            /* CPU.on_task_ipl_changed(task, old) */
            if (pp_reschedule(cpu, sim) < 0 ||
                gll(task, PPK__eff_ipl, &new_eff) < 0)
                return NULL;
            if (new_eff < old_eff && pp_notify_ipl(cpu) < 0)
                return NULL;
            /* self.deliver(None): loop, re-checking the state. */
            value = Py_None;
            continue;
        }
        if (Py_TYPE(command) == (PyTypeObject *)pps.Sleep) {
            PyObject *nsobj = slot_get(command, pps.off_sleep_ns);
            PyObject *dfn, *cb_args, *ev;
            long long ns;
            int dfn_owned = 0;
            if (nsobj == NULL) {
                Py_DECREF(command);
                PyErr_SetString(PyExc_AttributeError, "Sleep ns unset");
                return NULL;
            }
            ns = PyLong_AsLongLong(nsobj);
            Py_DECREF(command);
            if (ns == -1 && PyErr_Occurred())
                return NULL;
            if (ctx->b == NULL) {
                PyObject *name = gd(task, PPK_name);
                ctx->b = PyUnicode_FromFormat("sleep:%U",
                                              name ? name : Py_None);
                if (ctx->b == NULL)
                    return NULL;
            }
            dfn = gd(task, PPK_deliver);
            if (dfn == NULL) {
                if (PyErr_Occurred())
                    return NULL;
                dfn = PyObject_GetAttr(task, pp_keys[PPK_deliver]);
                if (dfn == NULL)
                    return NULL;
                dfn_owned = 1;
            }
            cb_args = PyTuple_Pack(1, Py_None);
            if (cb_args == NULL) {
                if (dfn_owned)
                    Py_DECREF(dfn);
                return NULL;
            }
            ev = schedule_common(sim, ns, dfn, cb_args, ctx->b);
            if (dfn_owned)
                Py_DECREF(dfn);
            if (ev == NULL)
                return NULL;
            Py_DECREF(ev);
            Py_RETURN_NONE;
        }
        if (Py_TYPE(command) == (PyTypeObject *)pps.WaitSignal) {
            PyObject *signal = slot_get(command, pps.off_wait_signal);
            PyObject *m, *res;
            if (signal == NULL) {
                Py_DECREF(command);
                PyErr_SetString(PyExc_AttributeError,
                                "WaitSignal signal unset");
                return NULL;
            }
            Py_INCREF(signal);
            Py_DECREF(command);
            if (sd(task, PPK__waiting_on, signal) < 0) {
                Py_DECREF(signal);
                return NULL;
            }
            if (Py_TYPE(signal) == (PyTypeObject *)pps.Signal) {
                /* Signal.add_waiter */
                PyObject *waiters = gdr(signal, PPK__waiters);
                int rc = waiters == NULL ? -1 : pp_deque_push(waiters, task);
                Py_DECREF(signal);
                if (rc < 0)
                    return NULL;
                Py_RETURN_NONE;
            }
            m = PyObject_GetAttr(signal, pp_keys[PPK_add_waiter]);
            Py_DECREF(signal);
            if (m == NULL)
                return NULL;
            res = PyObject_CallOneArg(m, task);
            Py_DECREF(m);
            if (res == NULL)
                return NULL;
            Py_DECREF(res);
            Py_RETURN_NONE;
        }
        /* Uncommon command: fall back to the Python dispatcher, with
         * the ProcessError catch from Process.deliver. */
        {
            PyObject *m = PyObject_GetAttrString(task, "_dispatch");
            PyObject *res;
            if (m == NULL) {
                Py_DECREF(command);
                return NULL;
            }
            res = PyObject_CallOneArg(m, command);
            Py_DECREF(m);
            Py_DECREF(command);
            if (res == NULL) {
                if (PyErr_ExceptionMatches(pps.ProcessError)) {
                    PyObject *t, *v, *tb;
                    PyErr_Fetch(&t, &v, &tb);
                    if (sd(task, PPK_state, pps.st_failed) < 0 ||
                        pp_finish(task) < 0) {
                        PyObject *nt, *nv, *ntb;
                        PyErr_Fetch(&nt, &nv, &ntb);
                        PyErr_NormalizeException(&nt, &nv, &ntb);
                        PyErr_NormalizeException(&t, &v, &tb);
                        if (nv != NULL && v != NULL) {
                            Py_INCREF(v);
                            PyException_SetContext(nv, v);
                        }
                        PyErr_Restore(nt, nv, ntb);
                        Py_XDECREF(t);
                        Py_XDECREF(v);
                        Py_XDECREF(tb);
                        return NULL;
                    }
                    PyErr_Restore(t, v, tb);
                }
                return NULL;
            }
            Py_DECREF(res);
            Py_RETURN_NONE;
        }
    }
}

/* CPU._complete: the completion callback armed by pp_reschedule. */
static PyObject *
pp_complete_impl(PPCtx *ctx, PyObject *task)
{
    PyObject *cpu = ctx->owner;
    FastCoreObject *sim = ctx->sim;
    PyObject *current, *remaining, *dfn;
    PPCtx *dctx;
    long long chunk, elapsed, hz, used, busy, was_ipl, cur_eff;
    current = gd(cpu, PPK__current);
    if (current == NULL && PyErr_Occurred())
        return NULL;
    if (task != current) {
        PyObject *name = gd(task, PPK_name);
        PyErr_Format(pps.ProcessError, "completion for non-current task %U",
                     name ? name : Py_None);
        return NULL;
    }
    if (sd(cpu, PPK__completion, Py_None) < 0 ||
        gll(cpu, PPK__chunk_started, &chunk) < 0 ||
        gll(cpu, PPK_hz, &hz) < 0 ||
        gll(task, PPK_cycles_used, &used) < 0 ||
        gll(cpu, PPK_busy_ns, &busy) < 0)
        return NULL;
    elapsed = sim->now_ns - chunk;
    if (sll(task, PPK_cycles_used, used + pp_ns_to_cycles(elapsed, hz)) < 0 ||
        sll(cpu, PPK_busy_ns, busy + elapsed) < 0)
        return NULL;
    if (elapsed > 0) {
        PyObject *obs = gd(cpu, PPK_account_observers);
        PyObject *elobj;
        Py_ssize_t i;
        if (obs == NULL || !PyList_Check(obs)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError,
                                "packetpath: account_observers missing");
            return NULL;
        }
        Py_INCREF(obs);
        elobj = PyLong_FromLongLong(elapsed);
        if (elobj == NULL) {
            Py_DECREF(obs);
            return NULL;
        }
        for (i = 0; i < PyList_GET_SIZE(obs); i++) {
            PyObject *cb = PyList_GET_ITEM(obs, i);
            PyObject *res;
            Py_INCREF(cb);
            res = PyObject_CallFunctionObjArgs(cb, task, elobj, NULL);
            Py_DECREF(cb);
            if (res == NULL) {
                Py_DECREF(elobj);
                Py_DECREF(obs);
                return NULL;
            }
            Py_DECREF(res);
        }
        Py_DECREF(elobj);
        Py_DECREF(obs);
    }
    if (sd(cpu, PPK__current, Py_None) < 0)
        return NULL;
    remaining = gd(cpu, PPK__remaining);
    if (remaining == NULL || !PyDict_Check(remaining)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: _remaining missing");
        return NULL;
    }
    if (PyDict_DelItem(remaining, task) < 0)
        return NULL;
    if (gll(task, PPK__eff_ipl, &was_ipl) < 0)
        return NULL;
    /* task.deliver(None); a finishing task drops its binding, so hold
     * it for the call. */
    dfn = gd(task, PPK_deliver);
    dctx = pp_deliver_ctx(dfn);
    if (dctx != NULL) {
        PyObject *res;
        Py_INCREF(dfn);
        res = pp_deliver_impl(dctx, Py_None);
        Py_DECREF(dfn);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    } else {
        PyObject *bound, *res;
        if (dfn == NULL && PyErr_Occurred())
            return NULL;
        bound = PyObject_GetAttr(task, pp_keys[PPK_deliver]);
        if (bound == NULL)
            return NULL;
        res = PyObject_CallOneArg(bound, Py_None);
        Py_DECREF(bound);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    }
    if (pp_reschedule(cpu, sim) < 0)
        return NULL;
    current = gd(cpu, PPK__current);
    if (current == NULL && PyErr_Occurred())
        return NULL;
    cur_eff = 0;
    if (current != NULL && current != Py_None) {
        if (gll(current, PPK__eff_ipl, &cur_eff) < 0)
            return NULL;
    }
    if (was_ipl > cur_eff && pp_notify_ipl(cpu) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- Instance-attribute entry points --------------------------------
 * Each is a PyCFunction whose m_self is a PPCtx carrying the owning
 * Python object and the FastCore simulator. PyCFunctions have no
 * __get__, so storing one in an instance __dict__ shadows the class
 * method exactly; deleting the instance attribute restores it. */

static PyObject *
ppf_task_deliver(PyObject *self, PyObject *value)
{
    return pp_deliver_impl((PPCtx *)self, value);
}

static PyMethodDef def_task_deliver = {
    "deliver", (PyCFunction)ppf_task_deliver, METH_O, NULL};

static int
pp_bind_deliver(PyObject *task, FastCoreObject *sim)
{
    PPCtx *ctx = ppctx_new(task, sim);
    PyObject *fn;
    if (ctx == NULL)
        return -1;
    fn = PyCFunction_New(&def_task_deliver, (PyObject *)ctx);
    Py_DECREF(ctx);
    if (fn == NULL)
        return -1;
    if (sd(task, PPK_deliver, fn) < 0) {
        Py_DECREF(fn);
        return -1;
    }
    Py_DECREF(fn);
    return 0;
}

static PyObject *
ppf_cpu_requeue(PyObject *self, PyObject *task)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *cpu = ctx->owner;
    PyObject *remaining = gd(cpu, PPK__remaining);
    long long seq;
    int has;
    if (remaining == NULL || !PyDict_Check(remaining)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_AttributeError,
                            "packetpath: _remaining missing");
        return NULL;
    }
    has = PyDict_Contains(remaining, task);
    if (has < 0)
        return NULL;
    if (!has)
        Py_RETURN_NONE;
    if (gll(cpu, PPK__seq, &seq) < 0 ||
        sll(cpu, PPK__seq, seq + 1) < 0 ||
        sll(task, PPK__ready_seq, seq + 1) < 0 ||
        pp_refresh_key(task) < 0 ||
        pp_reschedule(cpu, ctx->sim) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ppf_cpu_complete(PyObject *self, PyObject *task)
{
    return pp_complete_impl((PPCtx *)self, task);
}

static PyObject *
ppf_cpu_task(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *task;
    if (ctx->a == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "packetpath: cpu.task original not captured");
        return NULL;
    }
    task = PyObject_Vectorcall(ctx->a, args, nargs, kwnames);
    if (task == NULL)
        return NULL;
    if (pp_bind_deliver(task, ctx->sim) < 0) {
        Py_DECREF(task);
        return NULL;
    }
    return task;
}

static PyMethodDef def_cpu_requeue = {
    "requeue_behind", (PyCFunction)ppf_cpu_requeue, METH_O, NULL};
static PyMethodDef def_cpu_complete = {
    "_complete", (PyCFunction)ppf_cpu_complete, METH_O, NULL};
static PyMethodDef def_cpu_task = {
    "task", (PyCFunction)(void (*)(void))ppf_cpu_task,
    METH_FASTCALL | METH_KEYWORDS, NULL};

/* ---- Packet pipeline: shared helpers -------------------------------- */

static int
gdbl(PyObject *obj, int key, double *out)
{
    PyObject *v = gdr(obj, key);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
slot_ll_read(PyObject *obj, Py_ssize_t offset, long long *out)
{
    PyObject *v = slot_get(obj, offset);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "packetpath: slot unset");
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static int
slot_ll_write(PyObject *obj, Py_ssize_t offset, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    slot_set(obj, offset, v);
    return 0;
}

static inline int
pp_deque_push(PyObject *dq, PyObject *item)
{
    PyObject *stack[2];
    PyObject *r;
    stack[0] = dq;
    stack[1] = item;
    r = PyObject_Vectorcall(pps.deque_append, stack, 2, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static inline PyObject *  /* new ref */
pp_deque_pop_left(PyObject *dq)
{
    PyObject *stack[1];
    stack[0] = dq;
    return PyObject_Vectorcall(pps.deque_popleft, stack, 1, NULL);
}

/* Signal.fire(): wake every waiter through a zero-delay deliver event,
 * in FIFO order, labelled like the Python body's. */
static int
pp_signal_fire(PyObject *signal, FastCoreObject *sim)
{
    PyObject *waiters, *label = NULL;
    long long fires;
    int rc = -1;
    if (gll(signal, PPK__fires, &fires) < 0 ||
        sll(signal, PPK__fires, fires + 1) < 0)
        return -1;
    waiters = gdr(signal, PPK__waiters);
    if (waiters == NULL)
        return -1;
    Py_INCREF(waiters);
    for (;;) {
        Py_ssize_t n = PyObject_Size(waiters);
        PyObject *proc, *dfn, *args, *ev;
        if (n < 0)
            goto done;
        if (n == 0)
            break;
        proc = pp_deque_pop_left(waiters);
        if (proc == NULL)
            goto done;
        dfn = PyObject_GetAttr(proc, pp_keys[PPK_deliver]);
        Py_DECREF(proc);
        if (dfn == NULL)
            goto done;
        if (label == NULL) {
            PyObject *name = gdr(signal, PPK_name);
            label = name ? PyUnicode_FromFormat("wake:%U", name) : NULL;
            if (label == NULL) {
                Py_DECREF(dfn);
                goto done;
            }
        }
        args = PyTuple_Pack(1, Py_None);
        if (args == NULL) {
            Py_DECREF(dfn);
            goto done;
        }
        ev = schedule_common(sim, 0, dfn, args, label);
        Py_DECREF(dfn);
        if (ev == NULL)
            goto done;
        Py_DECREF(ev);
    }
    rc = 0;
done:
    Py_XDECREF(label);
    Py_DECREF(waiters);
    return rc;
}

/* PollingSystem.wake and HybridDriver._schedule: unless ``flag`` is
 * already set, set it, count the wake-up and fire the signal. */
static int
pp_kick(PyObject *obj, int flag, int counter, FastCoreObject *sim)
{
    PyObject *v = gdr(obj, flag), *ctr, *sig;
    int t;
    if (v == NULL)
        return -1;
    t = PyObject_IsTrue(v);
    if (t != 0)
        return t < 0 ? -1 : 0;
    if (sd(obj, flag, Py_True) < 0)
        return -1;
    ctr = gdr(obj, counter);
    if (ctr == NULL || counter_inc(ctr, 1) < 0)
        return -1;
    sig = gdr(obj, PPK__signal);
    return sig == NULL ? -1 : pp_signal_fire(sig, sim);
}

/* item.mark_dropped(where) with the Python body's hasattr() semantics:
 * silently a no-op for foreign payloads without the method. */
static int
pp_mark_dropped(PyObject *item, PyObject *where)
{
    PyObject *m, *r;
    if (Py_TYPE(item) == (PyTypeObject *)pps.Packet) {
        Py_INCREF(where);
        slot_set(item, pps.off_pk[PK_dropped_at], where);
        return 0;
    }
    m = PyObject_GetAttr(item, pp_keys[PPK_mark_dropped]);
    if (m == NULL) {
        if (PyErr_ExceptionMatches(PyExc_AttributeError)) {
            PyErr_Clear();
            return 0;
        }
        return -1;
    }
    r = PyObject_CallOneArg(m, where);
    Py_DECREF(m);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Invoke every callback in a watcher list with the queue as argument. */
static int
pp_fire_list(PyObject *q, int listkey)
{
    PyObject *cbs = gdr(q, listkey);
    Py_ssize_t i;
    if (cbs == NULL)
        return -1;
    if (!PyList_Check(cbs)) {
        PyErr_SetString(PyExc_TypeError, "packetpath: watcher list");
        return -1;
    }
    Py_INCREF(cbs);
    for (i = 0; i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = PyList_GET_ITEM(cbs, i);
        PyObject *r;
        Py_INCREF(cb);
        r = PyObject_CallOneArg(cb, q);
        Py_DECREF(cb);
        if (r == NULL) {
            Py_DECREF(cbs);
            return -1;
        }
        Py_DECREF(r);
    }
    Py_DECREF(cbs);
    return 0;
}

/* PacketQueue._fire_high_if_needed: level-triggered on every attempt. */
static int
pp_fire_high(PyObject *q)
{
    PyObject *hw = gdr(q, PPK_high_watermark);
    PyObject *items;
    long long hwv;
    Py_ssize_t sz;
    if (hw == NULL)
        return -1;
    if (hw == Py_None)
        return 0;
    hwv = PyLong_AsLongLong(hw);
    if (hwv == -1 && PyErr_Occurred())
        return -1;
    items = gdr(q, PPK__items);
    if (items == NULL)
        return -1;
    sz = PyObject_Size(items);
    if (sz < 0)
        return -1;
    if ((long long)sz < hwv)
        return 0;
    return pp_fire_list(q, PPK_on_high);
}

/* PacketQueue.enqueue body. Returns 1 accepted, 0 dropped, -1 error. */
static int
pp_pq_enqueue_body(PyObject *q, PyObject *item)
{
    PyObject *items = gdr(q, PPK__items);
    PyObject *c, *trace;
    long long limit, v, md;
    Py_ssize_t sz;
    if (items == NULL)
        return -1;
    sz = PyObject_Size(items);
    if (sz < 0)
        return -1;
    if (gll(q, PPK_limit, &limit) < 0)
        return -1;
    if ((long long)sz >= limit) {
        PyObject *name;
        if (gll(q, PPK_drop_count, &v) < 0 ||
            sll(q, PPK_drop_count, v + 1) < 0)
            return -1;
        c = gdr(q, PPK__dropped);
        if (c == NULL || counter_inc(c, 1) < 0)
            return -1;
        name = gdr(q, PPK_name);
        if (name == NULL || pp_mark_dropped(item, name) < 0)
            return -1;
        trace = gdr(q, PPK_trace);
        if (trace == NULL ||
            (trace != Py_None &&
             pp_trace(trace, PPK_packet_drop, 3, pps.kinds[TK_Q_DROP], name,
                      item) < 0))
            return -1;
        if (pp_fire_high(q) < 0)
            return -1;
        return 0;
    }
    if (pp_deque_push(items, item) < 0)
        return -1;
    if (gll(q, PPK_enqueue_count, &v) < 0 ||
        sll(q, PPK_enqueue_count, v + 1) < 0)
        return -1;
    c = gdr(q, PPK__enqueued);
    if (c == NULL || counter_inc(c, 1) < 0)
        return -1;
    if (gll(q, PPK_max_depth, &md) < 0)
        return -1;
    if ((long long)sz + 1 > md && sll(q, PPK_max_depth, sz + 1) < 0)
        return -1;
    trace = gdr(q, PPK_trace);
    if (trace == NULL ||
        (trace != Py_None &&
         pp_record_ll(trace, TK_Q_ENQUEUE, gdr(q, PPK_name), sz + 1) < 0))
        return -1;
    if (pp_fire_high(q) < 0)
        return -1;
    return 1;
}

/* PacketQueue.dequeue body (records nothing). New ref or NULL. */
static PyObject *
pp_pq_dequeue_body(PyObject *q)
{
    PyObject *items = gdr(q, PPK__items);
    PyObject *item, *c, *lw;
    long long v;
    Py_ssize_t sz;
    if (items == NULL)
        return NULL;
    sz = PyObject_Size(items);
    if (sz < 0)
        return NULL;
    if (sz == 0)
        Py_RETURN_NONE;
    item = pp_deque_pop_left(items);
    if (item == NULL)
        return NULL;
    if (gll(q, PPK_dequeue_count, &v) < 0 ||
        sll(q, PPK_dequeue_count, v + 1) < 0)
        goto fail;
    c = gdr(q, PPK__dequeued);
    if (c == NULL || counter_inc(c, 1) < 0)
        goto fail;
    lw = gdr(q, PPK_low_watermark);
    if (lw == NULL)
        goto fail;
    if (lw != Py_None) {
        long long lwv = PyLong_AsLongLong(lw);
        if (lwv == -1 && PyErr_Occurred())
            goto fail;
        if ((long long)sz - 1 == lwv && pp_fire_list(q, PPK_on_low) < 0)
            goto fail;
    }
    return item;
fail:
    Py_DECREF(item);
    return NULL;
}

/* Cached bound rng.random() on ctx->c; owner's rng under rng_key. */
static int
pp_rng_random(PPCtx *ctx, int rng_key, double *out)
{
    PyObject *res;
    if (ctx->c == NULL) {
        PyObject *rng = gdr(ctx->owner, rng_key);
        if (rng == NULL)
            return -1;
        ctx->c = PyObject_GetAttr(rng, pp_keys[PPK_random]);
        if (ctx->c == NULL)
            return -1;
    }
    res = PyObject_CallNoArgs(ctx->c);
    if (res == NULL)
        return -1;
    *out = PyFloat_AsDouble(res);
    Py_DECREF(res);
    if (*out == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

/* PacketPool.release(packet) body (exact Packet only). */
static int
pp_pool_release(PyObject *pool, PyObject *packet)
{
    PyObject *enabled = slot_get(pool, pps.off_pool_enabled);
    PyObject *pooled, *freelist;
    long long released, max_free;
    int t;
    if (enabled == NULL) {
        PyErr_SetString(PyExc_AttributeError, "pool enabled unset");
        return -1;
    }
    t = PyObject_IsTrue(enabled);
    if (t < 0)
        return -1;
    if (!t)
        return 0;
    pooled = slot_get(packet, pps.off_pk[PK__pooled]);
    if (pooled != NULL) {
        t = PyObject_IsTrue(pooled);
        if (t < 0)
            return -1;
        if (t) {
            PyErr_Format(PyExc_ValueError,
                         "packet %R released to the pool twice", packet);
            return -1;
        }
    }
    if (slot_ll_read(pool, pps.off_pool_released, &released) < 0)
        return -1;
    if (slot_ll_write(pool, pps.off_pool_released, released + 1) < 0)
        return -1;
    freelist = slot_get(pool, pps.off_pool_free);
    if (freelist == NULL || !PyList_Check(freelist)) {
        PyErr_SetString(PyExc_AttributeError, "pool freelist unset");
        return -1;
    }
    if (slot_ll_read(pool, pps.off_pool_max_free, &max_free) < 0)
        return -1;
    if ((long long)PyList_GET_SIZE(freelist) < max_free) {
        Py_INCREF(Py_True);
        slot_set(packet, pps.off_pk[PK__pooled], Py_True);
        if (PyList_Append(freelist, packet) < 0)
            return -1;
    }
    return 0;
}

/* ---- Packet pipeline: NIC (hw/nic.py) ------------------------------- */

/* NIC._kick_transmitter, scheduling through the compiled core. */
static int
pp_nic_kick(PPCtx *ctx, PyObject *nic)
{
    PyObject *busy = gdr(nic, PPK__tx_busy);
    PyObject *ring, *faults, *cb, *pkt, *name, *label, *cb_args, *ev;
    long long done, delay;
    Py_ssize_t sz;
    int t;
    if (busy == NULL)
        return -1;
    t = PyObject_IsTrue(busy);
    if (t < 0)
        return -1;
    if (t)
        return 0;
    ring = gdr(nic, PPK__tx_ring);
    if (ring == NULL)
        return -1;
    sz = PyObject_Size(ring);
    if (sz < 0)
        return -1;
    if (gll(nic, PPK__tx_done, &done) < 0)
        return -1;
    if (done >= (long long)sz)
        return 0;
    if (sd(nic, PPK__tx_busy, Py_True) < 0)
        return -1;
    if (gll(nic, PPK_tx_packet_time_ns, &delay) < 0)
        return -1;
    faults = gdr(nic, PPK_faults);
    if (faults == NULL)
        return -1;
    if (faults != Py_None) {
        PyObject *extra = PyObject_CallMethod(faults, "tx_extra_delay", "O",
                                              nic);
        long long ex;
        if (extra == NULL)
            return -1;
        ex = PyLong_AsLongLong(extra);
        Py_DECREF(extra);
        if (ex == -1 && PyErr_Occurred())
            return -1;
        delay += ex;
    }
    cb = PyObject_GetAttr(nic, pp_keys[PPK__transmit_complete]);
    if (cb == NULL)
        return -1;
    pkt = PySequence_GetItem(ring, (Py_ssize_t)done);
    if (pkt == NULL) {
        Py_DECREF(cb);
        return -1;
    }
    name = gdr(nic, PPK_name);
    if (name == NULL) {
        Py_DECREF(cb);
        Py_DECREF(pkt);
        return -1;
    }
    label = PyUnicode_FromFormat("tx:%U", name);
    cb_args = label ? PyTuple_Pack(1, pkt) : NULL;
    Py_DECREF(pkt);
    if (cb_args == NULL) {
        Py_DECREF(cb);
        Py_XDECREF(label);
        return -1;
    }
    ev = schedule_common(ctx->sim, delay, cb, cb_args, label);
    Py_DECREF(cb);
    Py_DECREF(label);
    if (ev == NULL)
        return -1;
    Py_DECREF(ev);
    return 0;
}

static PyObject *
ppf_nic_receive(PyObject *self, PyObject *packet)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    PyObject *faults = gdr(nic, PPK_faults);
    PyObject *trace, *ring, *line, *c, *arr;
    long long cap;
    Py_ssize_t sz;
    if (faults == NULL)
        return NULL;
    if (faults != Py_None || Py_TYPE(packet) != (PyTypeObject *)pps.Packet) {
        PyObject *stack[2];
        stack[0] = nic;
        stack[1] = packet;
        return PyObject_Vectorcall(pps.nic_receive, stack, 2, NULL);
    }
    ring = gdr(nic, PPK__rx_ring);
    if (ring == NULL)
        return NULL;
    sz = PyObject_Size(ring);
    if (sz < 0)
        return NULL;
    if (gll(nic, PPK_rx_ring_capacity, &cap) < 0)
        return NULL;
    if ((long long)sz >= cap) {
        c = gdr(nic, PPK_rx_overflow_drops);
        if (c == NULL || counter_inc(c, 1) < 0)
            return NULL;
        trace = gdr(nic, PPK_trace);
        if (trace == NULL ||
            (trace != Py_None &&
             pp_trace(trace, PPK_packet_drop, 3, pps.kinds[TK_RX_OVERFLOW],
                      gdr(nic, PPK_name), packet) < 0))
            return NULL;
        Py_RETURN_FALSE;
    }
    arr = slot_get(packet, pps.off_pk[PK_nic_arrival_ns]);
    if (arr == Py_None) {
        PyObject *now = PyLong_FromLongLong(ctx->sim->now_ns);
        if (now == NULL)
            return NULL;
        slot_set(packet, pps.off_pk[PK_nic_arrival_ns], now);
    }
    if (pp_deque_push(ring, packet) < 0)
        return NULL;
    c = gdr(nic, PPK_rx_accepted);
    if (c == NULL || counter_inc(c, 1) < 0)
        return NULL;
    trace = gdr(nic, PPK_trace);
    if (trace == NULL ||
        (trace != Py_None &&
         pp_trace(trace, PPK_record, 2, pps.kinds[TK_RX_ACCEPT],
                  gdr(nic, PPK_name)) < 0))
        return NULL;
    line = gdr(nic, PPK_rx_line);
    if (line == NULL)
        return NULL;
    if (line != Py_None) {
        PyObject *req = PyObject_GetAttr(line, pp_keys[PPK_request]);
        PyObject *r;
        if (req == NULL)
            return NULL;
        r = PyObject_CallNoArgs(req);
        Py_DECREF(req);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    Py_RETURN_TRUE;
}

static PyObject *
ppf_nic_rx_pull(PyObject *self, PyObject *noarg)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    PyObject *ring = gdr(nic, PPK__rx_ring);
    PyObject *faults;
    Py_ssize_t sz;
    (void)noarg;
    if (ring == NULL)
        return NULL;
    sz = PyObject_Size(ring);
    if (sz < 0)
        return NULL;
    if (sz == 0)
        Py_RETURN_NONE;
    faults = gdr(nic, PPK_faults);
    if (faults == NULL)
        return NULL;
    if (faults != Py_None)
        return PyObject_CallOneArg(pps.nic_rx_pull, nic);
    return pp_deque_pop_left(ring);
}

static PyObject *
ppf_nic_rx_pull_many(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                     PyObject *kwnames)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    PyObject *ring, *faults, *out;
    Py_ssize_t count, i;
    if ((kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0) || nargs > 1) {
        /* keyword call: rare, delegate verbatim */
        PyObject *buf[4];
        Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
        if (total > 3) {
            PyErr_SetString(PyExc_TypeError,
                            "rx_pull_many: too many arguments");
            return NULL;
        }
        buf[0] = nic;
        for (i = 0; i < total; i++)
            buf[1 + i] = args[i];
        return PyObject_Vectorcall(pps.nic_rx_pull_many, buf, nargs + 1,
                                   kwnames);
    }
    ring = gdr(nic, PPK__rx_ring);
    if (ring == NULL)
        return NULL;
    count = PyObject_Size(ring);
    if (count < 0)
        return NULL;
    if (count) {
        faults = gdr(nic, PPK_faults);
        if (faults == NULL)
            return NULL;
        if (faults != Py_None) {
            PyObject *buf[2];
            buf[0] = nic;
            for (i = 0; i < nargs; i++)
                buf[1 + i] = args[i];
            return PyObject_Vectorcall(pps.nic_rx_pull_many, buf, nargs + 1,
                                       NULL);
        }
    }
    if (nargs == 1 && args[0] != Py_None) {
        long long lim = PyLong_AsLongLong(args[0]);
        if (lim == -1 && PyErr_Occurred())
            return NULL;
        if (lim < (long long)count)
            count = (Py_ssize_t)lim;
    }
    out = PyList_New(count);
    if (out == NULL)
        return NULL;
    for (i = 0; i < count; i++) {
        PyObject *item = pp_deque_pop_left(ring);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *
ppf_nic_rx_pending(PyObject *self, PyObject *noarg)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    PyObject *faults = gdr(nic, PPK_faults);
    PyObject *ring;
    Py_ssize_t sz;
    (void)noarg;
    if (faults == NULL)
        return NULL;
    if (faults != Py_None)
        return PyObject_CallOneArg(pps.nic_rx_pending, nic);
    ring = gdr(nic, PPK__rx_ring);
    if (ring == NULL)
        return NULL;
    sz = PyObject_Size(ring);
    if (sz < 0)
        return NULL;
    return PyLong_FromSsize_t(sz);
}

static PyObject *
ppf_nic_tx_done(PyObject *self, PyObject *noarg)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *v = gdr(ctx->owner, PPK__tx_done);
    (void)noarg;
    if (v == NULL)
        return NULL;
    Py_INCREF(v);
    return v;
}

static PyObject *
ppf_nic_tx_enqueue(PyObject *self, PyObject *packet)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    PyObject *ring = gdr(nic, PPK__tx_ring);
    PyObject *busy;
    long long cap;
    Py_ssize_t sz;
    int t;
    if (ring == NULL)
        return NULL;
    sz = PyObject_Size(ring);
    if (sz < 0)
        return NULL;
    if (gll(nic, PPK_tx_ring_capacity, &cap) < 0)
        return NULL;
    if ((long long)sz >= cap)
        Py_RETURN_FALSE;
    if (pp_deque_push(ring, packet) < 0)
        return NULL;
    busy = gdr(nic, PPK__tx_busy);
    if (busy == NULL)
        return NULL;
    t = PyObject_IsTrue(busy);
    if (t < 0)
        return NULL;
    if (!t && pp_nic_kick(ctx, nic) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
ppf_nic_tx_reclaim(PyObject *self, PyObject *noarg)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    long long freed, i;
    (void)noarg;
    if (gll(nic, PPK__tx_done, &freed) < 0)
        return NULL;
    if (freed) {
        PyObject *ring = gdr(nic, PPK__tx_ring), *trace;
        if (ring == NULL)
            return NULL;
        for (i = 0; i < freed; i++) {
            PyObject *item = pp_deque_pop_left(ring);
            if (item == NULL)
                return NULL;
            Py_DECREF(item);
        }
        if (sll(nic, PPK__tx_done, 0) < 0)
            return NULL;
        trace = gdr(nic, PPK_trace);
        if (trace == NULL ||
            (trace != Py_None &&
             pp_record_ll(trace, TK_TX_RECLAIM, gdr(nic, PPK_name),
                          freed) < 0))
            return NULL;
    }
    return PyLong_FromLongLong(freed);
}

static PyObject *
ppf_nic_txcomplete(PyObject *self, PyObject *packet)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *nic = ctx->owner;
    PyObject *trace, *c, *hook, *line;
    long long done;
    if (gll(nic, PPK__tx_done, &done) < 0 ||
        sll(nic, PPK__tx_done, done + 1) < 0)
        return NULL;
    if (sd(nic, PPK__tx_busy, Py_False) < 0)
        return NULL;
    c = gdr(nic, PPK_tx_completed);
    if (c == NULL || counter_inc(c, 1) < 0)
        return NULL;
    trace = gdr(nic, PPK_trace);
    if (trace == NULL ||
        (trace != Py_None &&
         pp_trace(trace, PPK_record, 2, pps.kinds[TK_TX_COMPLETE],
                  gdr(nic, PPK_name)) < 0))
        return NULL;
    if (Py_TYPE(packet) == (PyTypeObject *)pps.Packet) {
        PyObject *now = PyLong_FromLongLong(ctx->sim->now_ns);
        if (now == NULL)
            return NULL;
        slot_set(packet, pps.off_pk[PK_transmitted_ns], now);
    }
    else {
        PyObject *m = PyObject_GetAttr(packet, pp_keys[PPK_mark_transmitted]);
        if (m == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                return NULL;
            PyErr_Clear();
        }
        else {
            PyObject *now = PyLong_FromLongLong(ctx->sim->now_ns);
            PyObject *r = now ? PyObject_CallOneArg(m, now) : NULL;
            Py_DECREF(m);
            Py_XDECREF(now);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
    }
    hook = gdr(nic, PPK_on_transmit);
    if (hook == NULL)
        return NULL;
    if (hook != Py_None) {
        PyObject *r;
        Py_INCREF(hook);
        r = PyObject_CallOneArg(hook, packet);
        Py_DECREF(hook);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    line = gdr(nic, PPK_tx_line);
    if (line == NULL)
        return NULL;
    if (line != Py_None) {
        PyObject *req = PyObject_GetAttr(line, pp_keys[PPK_request]);
        PyObject *r;
        if (req == NULL)
            return NULL;
        r = PyObject_CallNoArgs(req);
        Py_DECREF(req);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    if (pp_nic_kick(ctx, nic) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- Packet pipeline: queues (kernel/queues.py) --------------------- */

static PyObject *
ppf_pq_enqueue(PyObject *self, PyObject *item)
{
    PPCtx *ctx = (PPCtx *)self;
    int rc = pp_pq_enqueue_body(ctx->owner, item);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

static PyObject *
ppf_pq_dequeue(PyObject *self, PyObject *noarg)
{
    (void)noarg;
    return pp_pq_dequeue_body(((PPCtx *)self)->owner);
}

/* ---- Packet pipeline: IP forwarding (net/ip.py) --------------------- */

static PyObject *
ppf_ip_dispatch(PyObject *self, PyObject *packet)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *ip = ctx->owner;
    PyObject *dstobj, *la, *udp, *routing, *routes, *iface = NULL;
    PyObject *arp, *entries, *link, *outputs, *hook, *res, *c;
    long long dst, v;
    int contains;
    Py_ssize_t i, n;
    if (Py_TYPE(packet) != (PyTypeObject *)pps.Packet) {
        PyObject *stack[2];
        stack[0] = ip;
        stack[1] = packet;
        return PyObject_Vectorcall(pps.ip_dispatch, stack, 2, NULL);
    }
    dstobj = slot_get(packet, pps.off_pk[PK_dst]);
    if (dstobj == NULL) {
        PyErr_SetString(PyExc_AttributeError, "packet dst unset");
        return NULL;
    }
    la = gdr(ip, PPK_local_addresses);
    if (la == NULL)
        return NULL;
    udp = gdr(ip, PPK_udp);
    if (udp == NULL)
        return NULL;
    contains = PySequence_Contains(la, dstobj);
    if (contains < 0)
        return NULL;
    if (contains && udp != Py_None) {
        /* local UDP delivery: uncommon path, handled by Python */
        PyObject *stack[2];
        stack[0] = ip;
        stack[1] = packet;
        return PyObject_Vectorcall(pps.ip_dispatch, stack, 2, NULL);
    }
    dst = PyLong_AsLongLong(dstobj);
    if (dst == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return NULL;
        PyErr_Clear();
        {
            PyObject *stack[2];
            stack[0] = ip;
            stack[1] = packet;
            return PyObject_Vectorcall(pps.ip_dispatch, stack, 2, NULL);
        }
    }
    routing = gdr(ip, PPK_routing);
    if (routing == NULL)
        return NULL;
    if (gll(routing, PPK_lookups, &v) < 0 ||
        sll(routing, PPK_lookups, v + 1) < 0)
        return NULL;
    routes = gdr(routing, PPK__routes);
    if (routes == NULL || !PyList_Check(routes)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "packetpath: _routes list");
        return NULL;
    }
    n = PyList_GET_SIZE(routes);
    for (i = 0; i < n; i++) {
        PyObject *route = PyList_GET_ITEM(routes, i);
        PyObject *net = slot_get(route, pps.off_route_network);
        PyObject *plen = slot_get(route, pps.off_route_prefix);
        long long network, prefix_len;
        unsigned long long mask;
        if (net == NULL || plen == NULL) {
            PyErr_SetString(PyExc_AttributeError, "route slots unset");
            return NULL;
        }
        network = PyLong_AsLongLong(net);
        if (network == -1 && PyErr_Occurred())
            return NULL;
        prefix_len = PyLong_AsLongLong(plen);
        if (prefix_len == -1 && PyErr_Occurred())
            return NULL;
        mask = prefix_len == 0
                   ? 0ULL
                   : ((0xFFFFFFFFULL << (32 - prefix_len)) & 0xFFFFFFFFULL);
        if (((unsigned long long)dst & mask) == (unsigned long long)network) {
            iface = slot_get(route, pps.off_route_interface);
            if (iface == NULL) {
                PyErr_SetString(PyExc_AttributeError, "route iface unset");
                return NULL;
            }
            break;
        }
    }
    if (iface == NULL) {
        if (gll(routing, PPK_misses, &v) < 0 ||
            sll(routing, PPK_misses, v + 1) < 0)
            return NULL;
        c = gdr(ip, PPK_no_route_drops);
        if (c == NULL || counter_inc(c, 1) < 0)
            return NULL;
        Py_INCREF(pps.s_no_route);
        slot_set(packet, pps.off_pk[PK_dropped_at], pps.s_no_route);
        Py_RETURN_NONE;
    }
    arp = gdr(ip, PPK_arp);
    if (arp == NULL)
        return NULL;
    if (gll(arp, PPK_lookups, &v) < 0 || sll(arp, PPK_lookups, v + 1) < 0)
        return NULL;
    entries = gdr(arp, PPK__entries);
    if (entries == NULL || !PyDict_Check(entries)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "packetpath: _entries dict");
        return NULL;
    }
    link = PyDict_GetItemWithError(entries, dstobj);
    if (link == NULL) {
        if (PyErr_Occurred())
            return NULL;
        if (gll(arp, PPK_failures, &v) < 0 ||
            sll(arp, PPK_failures, v + 1) < 0)
            return NULL;
        c = gdr(ip, PPK_arp_failure_drops);
        if (c == NULL || counter_inc(c, 1) < 0)
            return NULL;
        Py_INCREF(pps.s_arp_failure);
        slot_set(packet, pps.off_pk[PK_dropped_at], pps.s_arp_failure);
        Py_RETURN_NONE;
    }
    outputs = gdr(ip, PPK_outputs);
    if (outputs == NULL || !PyDict_Check(outputs)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "packetpath: outputs dict");
        return NULL;
    }
    hook = PyDict_GetItemWithError(outputs, iface);
    if (hook == NULL) {
        if (PyErr_Occurred())
            return NULL;
        PyErr_Format(PyExc_RuntimeError,
                     "no output hook registered for %R", iface);
        return NULL;
    }
    c = gdr(ip, PPK_forwarded);
    if (c == NULL || counter_inc(c, 1) < 0)
        return NULL;
    Py_INCREF(hook);
    res = PyObject_CallOneArg(hook, packet);
    Py_DECREF(hook);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

/* ---- Packet pipeline: interrupt request (hw/interrupts.py) ---------- */

static PyObject *
ppf_line_request(PyObject *self, PyObject *noarg)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *line = ctx->owner;
    PyObject *faults = gdr(line, PPK_faults);
    PyObject *trace, *enabled, *insvc, *controller, *cpu, *cur;
    long long rc, ipl, eff;
    int t;
    (void)noarg;
    if (faults == NULL)
        return NULL;
    if (faults != Py_None)
        return PyObject_CallOneArg(pps.line_request, line);
    if (gll(line, PPK_request_count, &rc) < 0 ||
        sll(line, PPK_request_count, rc + 1) < 0)
        return NULL;
    trace = gdr(line, PPK_trace);
    if (trace == NULL ||
        (trace != Py_None &&
         pp_trace(trace, PPK_record, 2, pps.kinds[TK_IRQ_REQUEST],
                  gdr(line, PPK_name)) < 0))
        return NULL;
    enabled = gdr(line, PPK_enabled);
    if (enabled == NULL)
        return NULL;
    t = PyObject_IsTrue(enabled);
    if (t < 0)
        return NULL;
    if (!t) {
        long long sup;
        if (gll(line, PPK_suppressed_while_disabled, &sup) < 0 ||
            sll(line, PPK_suppressed_while_disabled, sup + 1) < 0)
            return NULL;
        if (sd(line, PPK_requested, Py_True) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (sd(line, PPK_requested, Py_True) < 0)
        return NULL;
    insvc = gdr(line, PPK_in_service);
    if (insvc == NULL)
        return NULL;
    t = PyObject_IsTrue(insvc);
    if (t < 0)
        return NULL;
    if (t)
        Py_RETURN_NONE;
    controller = gdr(line, PPK_controller);
    if (controller == NULL)
        return NULL;
    cpu = gdr(controller, PPK_cpu);
    if (cpu == NULL)
        return NULL;
    cur = gdr(cpu, PPK__current);
    if (cur == NULL)
        return NULL;
    eff = 0;
    if (cur != Py_None && gll(cur, PPK__eff_ipl, &eff) < 0)
        return NULL;
    if (gll(line, PPK_ipl, &ipl) < 0)
        return NULL;
    if (ipl <= eff)
        Py_RETURN_NONE;  /* try_deliver would refuse without side effects */
    {
        PyObject *td = PyObject_GetAttr(controller, pp_keys[PPK_try_deliver]);
        PyObject *r;
        if (td == NULL)
            return NULL;
        r = PyObject_CallOneArg(td, line);
        Py_DECREF(td);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    Py_RETURN_NONE;
}

/* ---- Packet pipeline: driver outputs, softnet entry ----------------- */

static PyObject *
pp_driver_output(PPCtx *ctx, PyObject *packet, int mode)
{
    /* mode: 0 = tx_line kick (bsd/highipl), 1 = polling wake (polled),
     * 2 = plain enqueue (clocked). */
    PyObject *drv = ctx->owner;
    PyObject *q = gdr(drv, PPK_ifqueue);
    PyObject *enq, *res, *nic, *busy;
    long long done;
    int accepted, t;
    if (q == NULL)
        return NULL;
    enq = PyObject_GetAttr(q, pp_keys[PPK_enqueue]);
    if (enq == NULL)
        return NULL;
    res = PyObject_CallOneArg(enq, packet);
    Py_DECREF(enq);
    if (res == NULL)
        return NULL;
    accepted = PyObject_IsTrue(res);
    Py_DECREF(res);
    if (accepted < 0)
        return NULL;
    if (mode == 2 || !accepted)
        Py_RETURN_NONE;
    nic = gdr(drv, PPK_nic);
    if (nic == NULL)
        return NULL;
    busy = gdr(nic, PPK__tx_busy);
    if (busy == NULL)
        return NULL;
    t = PyObject_IsTrue(busy);
    if (t < 0)
        return NULL;
    if (t)
        Py_RETURN_NONE;
    if (gll(nic, PPK__tx_done, &done) < 0)
        return NULL;
    if (done != 0)
        Py_RETURN_NONE;
    if (mode == 0) {
        PyObject *line = gdr(drv, PPK_tx_line);
        PyObject *req, *r;
        if (line == NULL)
            return NULL;
        req = PyObject_GetAttr(line, pp_keys[PPK_request]);
        if (req == NULL)
            return NULL;
        r = PyObject_CallNoArgs(req);
        Py_DECREF(req);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    else {
        PyObject *pol;
        if (sd(drv, PPK_tx_service_needed, Py_True) < 0)
            return NULL;
        pol = gdr(drv, PPK_polling);
        if (pol == NULL ||
            pp_kick(pol, PPK__wake_pending, PPK_wakeups, ctx->sim) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
ppf_driver_output_irq(PyObject *self, PyObject *packet)
{
    return pp_driver_output((PPCtx *)self, packet, 0);
}

static PyObject *
ppf_driver_output_poll(PyObject *self, PyObject *packet)
{
    return pp_driver_output((PPCtx *)self, packet, 1);
}

static PyObject *
ppf_driver_output_plain(PyObject *self, PyObject *packet)
{
    return pp_driver_output((PPCtx *)self, packet, 2);
}

static PyObject *
ppf_ipinput_enqueue(PyObject *self, PyObject *packet)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *ipi = ctx->owner;
    PyObject *q = gdr(ipi, PPK_ipintrq);
    PyObject *enq, *res;
    int accepted;
    if (q == NULL)
        return NULL;
    enq = PyObject_GetAttr(q, pp_keys[PPK_enqueue]);
    if (enq == NULL)
        return NULL;
    res = PyObject_CallOneArg(enq, packet);
    Py_DECREF(enq);
    if (res == NULL)
        return NULL;
    accepted = PyObject_IsTrue(res);
    if (accepted < 0)
        goto fail;
    if (accepted) {
        PyObject *sl = gdr(ipi, PPK__softnet_line);
        if (sl == NULL)
            goto fail;
        if (sl != Py_None) {
            PyObject *req = PyObject_GetAttr(sl, pp_keys[PPK_request]);
            PyObject *r;
            if (req == NULL)
                goto fail;
            r = PyObject_CallNoArgs(req);
            Py_DECREF(req);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
        else {
            PyObject *ns = gdr(ipi, PPK__netisr_signal);
            if (ns == NULL)
                goto fail;
            if (ns != Py_None && pp_signal_fire(ns, ctx->sim) < 0)
                goto fail;
        }
    }
    return res;
fail:
    Py_DECREF(res);
    return NULL;
}

/* ---- Packet pipeline: router delivery hooks (topology.py) ----------- */

static PyObject *
ppf_router_out_transmit(PyObject *self, PyObject *packet)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *router = ctx->owner;
    PyObject *trace, *c, *lat, *pool, *rec;
    int t;
    if (Py_TYPE(packet) != (PyTypeObject *)pps.Packet) {
        PyObject *stack[2];
        stack[0] = router;
        stack[1] = packet;
        return PyObject_Vectorcall(pps.router_out_transmit, stack, 2, NULL);
    }
    c = gdr(router, PPK_delivered);
    if (c == NULL || counter_inc(c, 1) < 0)
        return NULL;
    lat = gdr(router, PPK_latency);
    if (lat == NULL)
        return NULL;
    rec = gdr(lat, PPK__recording);
    if (rec == NULL)
        return NULL;
    t = PyObject_IsTrue(rec);
    if (t < 0)
        return NULL;
    if (t) {
        PyObject *samples = gdr(lat, PPK__samples_ns);
        long long cap;
        if (samples == NULL || !PyList_Check(samples)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "packetpath: samples list");
            return NULL;
        }
        if (gll(lat, PPK_sample_cap, &cap) < 0)
            return NULL;
        if ((long long)PyList_GET_SIZE(samples) >= cap) {
            /* reservoir path draws from the recorder's RNG: delegate the
             * whole observation before touching any state */
            PyObject *stack[2];
            PyObject *r;
            stack[0] = lat;
            stack[1] = packet;
            r = PyObject_Vectorcall(pps.lat_observe, stack, 2, NULL);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
        else {
            PyObject *arr = slot_get(packet, pps.off_pk[PK_nic_arrival_ns]);
            PyObject *tra = slot_get(packet, pps.off_pk[PK_transmitted_ns]);
            if (arr != NULL && tra != NULL && arr != Py_None &&
                tra != Py_None) {
                long long a, tt, obs;
                PyObject *lv;
                a = PyLong_AsLongLong(arr);
                if (a == -1 && PyErr_Occurred())
                    return NULL;
                tt = PyLong_AsLongLong(tra);
                if (tt == -1 && PyErr_Occurred())
                    return NULL;
                if (gll(lat, PPK__observed, &obs) < 0 ||
                    sll(lat, PPK__observed, obs + 1) < 0)
                    return NULL;
                lv = PyLong_FromLongLong(tt - a);
                if (lv == NULL)
                    return NULL;
                if (PyList_Append(samples, lv) < 0) {
                    Py_DECREF(lv);
                    return NULL;
                }
                Py_DECREF(lv);
            }
        }
    }
    trace = gdr(router, PPK_trace);
    if (trace == NULL)
        return NULL;
    if (trace != Py_None) {
        PyObject *nic = gdr(router, PPK_nic_out);
        if (nic == NULL ||
            pp_trace(trace, PPK_packet_deliver, 2, gdr(nic, PPK_name),
                     packet) < 0)
            return NULL;
    }
    pool = gdr(router, PPK_packet_pool);
    if (pool == NULL)
        return NULL;
    if (pp_pool_release(pool, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- Packet pipeline: traffic generators (workloads/generators.py) -- */

/* self._pending = self.sim.schedule(delay, self.<fnkey>, label=...) */
static int
pp_gen_schedule(PPCtx *ctx, PyObject *gen, long long delay, int fnkey)
{
    PyObject *dfn, *cb_args, *ev;
    int rc;
    if (ctx->b == NULL) {
        PyObject *name = gdr(gen, PPK_name);
        if (name == NULL)
            return -1;
        ctx->b = PyUnicode_FromFormat("sleep:%U", name);
        if (ctx->b == NULL)
            return -1;
    }
    dfn = PyObject_GetAttr(gen, pp_keys[fnkey]);
    if (dfn == NULL)
        return -1;
    cb_args = PyTuple_New(0);
    if (cb_args == NULL) {
        Py_DECREF(dfn);
        return -1;
    }
    ev = schedule_common(ctx->sim, delay, dfn, cb_args, ctx->b);
    Py_DECREF(dfn);
    if (ev == NULL)
        return -1;
    rc = sd(gen, PPK__pending, ev);
    Py_DECREF(ev);
    return rc;
}

/* TrafficGenerator._emit body: pool acquire + reset inlined, pool known
 * present. */
static int
pp_gen_emit(PPCtx *ctx, PyObject *gen)
{
    PyObject *trace = gdr(gen, PPK_trace);
    PyObject *pool, *freelist, *packet = NULL, *rfw, *res;
    long long sent;
    int t;
    if (trace == NULL)
        return -1;
    if (trace != Py_None) {
        PyObject *name = gdr(gen, PPK_name);
        if (name == NULL ||
            pp_trace(trace, PPK_record, 3, pps.kinds[TK_PKT_INJECT], name,
                     gdr(gen, PPK_sent)) < 0)
            return -1;
    }
    pool = gdr(gen, PPK_pool);
    if (pool == NULL)
        return -1;
    freelist = slot_get(pool, pps.off_pool_free);
    if (freelist == NULL || !PyList_Check(freelist)) {
        PyErr_SetString(PyExc_AttributeError, "pool freelist unset");
        return -1;
    }
    if (PyList_GET_SIZE(freelist) > 0) {
        Py_ssize_t nf = PyList_GET_SIZE(freelist);
        long long reused;
        PyObject *pid, *v;
        if (slot_ll_read(pool, pps.off_pool_reused, &reused) < 0 ||
            slot_ll_write(pool, pps.off_pool_reused, reused + 1) < 0)
            return -1;
        packet = PyList_GET_ITEM(freelist, nf - 1);
        Py_INCREF(packet);
        if (PyList_SetSlice(freelist, nf - 1, nf, NULL) < 0)
            goto fail;
        Py_INCREF(Py_False);
        slot_set(packet, pps.off_pk[PK__pooled], Py_False);
        /* Packet.reset(...) */
        pid = PyIter_Next(pps.packet_ids);
        if (pid == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError,
                                "packet id iterator exhausted");
            goto fail;
        }
        slot_set(packet, pps.off_pk[PK_packet_id], pid);
        v = gdr(gen, PPK_src);
        if (v == NULL)
            goto fail;
        Py_INCREF(v);
        slot_set(packet, pps.off_pk[PK_src], v);
        v = gdr(gen, PPK_dst);
        if (v == NULL)
            goto fail;
        Py_INCREF(v);
        slot_set(packet, pps.off_pk[PK_dst], v);
        v = PyLong_FromLong(0);
        if (v == NULL)
            goto fail;
        slot_set(packet, pps.off_pk[PK_src_port], v);
        v = gdr(gen, PPK_dst_port);
        if (v == NULL)
            goto fail;
        Py_INCREF(v);
        slot_set(packet, pps.off_pk[PK_dst_port], v);
        v = PyLong_FromLong(17);
        if (v == NULL)
            goto fail;
        slot_set(packet, pps.off_pk[PK_protocol], v);
        v = gdr(gen, PPK_payload_bytes);
        if (v == NULL)
            goto fail;
        Py_INCREF(v);
        slot_set(packet, pps.off_pk[PK_payload_bytes], v);
        v = PyLong_FromLongLong(ctx->sim->now_ns);
        if (v == NULL)
            goto fail;
        slot_set(packet, pps.off_pk[PK_created_ns], v);
        Py_INCREF(Py_None);
        slot_set(packet, pps.off_pk[PK_nic_arrival_ns], Py_None);
        Py_INCREF(Py_None);
        slot_set(packet, pps.off_pk[PK_transmitted_ns], Py_None);
        Py_INCREF(Py_None);
        slot_set(packet, pps.off_pk[PK_dropped_at], Py_None);
        Py_INCREF(Py_False);
        slot_set(packet, pps.off_pk[PK_corrupted], Py_False);
        v = gdr(gen, PPK_flow);
        if (v == NULL)
            goto fail;
        Py_INCREF(v);
        slot_set(packet, pps.off_pk[PK_flow], v);
    }
    else {
        long long allocated;
        PyObject *argv[8];
        PyObject *zero, *proto, *created;
        if (slot_ll_read(pool, pps.off_pool_allocated, &allocated) < 0 ||
            slot_ll_write(pool, pps.off_pool_allocated, allocated + 1) < 0)
            return -1;
        argv[0] = gdr(gen, PPK_src);
        argv[1] = gdr(gen, PPK_dst);
        argv[3] = gdr(gen, PPK_dst_port);
        argv[5] = gdr(gen, PPK_payload_bytes);
        argv[7] = gdr(gen, PPK_flow);
        if (argv[0] == NULL || argv[1] == NULL || argv[3] == NULL ||
            argv[5] == NULL || argv[7] == NULL)
            return -1;
        zero = PyLong_FromLong(0);
        proto = PyLong_FromLong(17);
        created = PyLong_FromLongLong(ctx->sim->now_ns);
        if (zero == NULL || proto == NULL || created == NULL) {
            Py_XDECREF(zero);
            Py_XDECREF(proto);
            Py_XDECREF(created);
            return -1;
        }
        argv[2] = zero;
        argv[4] = proto;
        argv[6] = created;
        packet = PyObject_Vectorcall(pps.Packet, argv, 8, NULL);
        Py_DECREF(zero);
        Py_DECREF(proto);
        Py_DECREF(created);
        if (packet == NULL)
            return -1;
    }
    rfw = gdr(gen, PPK__receive_from_wire);
    if (rfw == NULL)
        goto fail;
    Py_INCREF(rfw);
    res = PyObject_CallOneArg(rfw, packet);
    Py_DECREF(rfw);
    if (res == NULL)
        goto fail;
    t = PyObject_IsTrue(res);
    Py_DECREF(res);
    if (t < 0)
        goto fail;
    if (!t && pp_pool_release(pool, packet) < 0)
        goto fail;
    Py_DECREF(packet);
    if (gll(gen, PPK_sent, &sent) < 0 || sll(gen, PPK_sent, sent + 1) < 0)
        return -1;
    return 0;
fail:
    Py_XDECREF(packet);
    return -1;
}

/* _tick bodies; kind: 0 constant-rate, 1 poisson, 2 bursty. The RNG
 * expressions replicate CPython's random.uniform / expovariate term
 * order exactly, so every draw is bit-identical to the pure path. */
static PyObject *
pp_gen_tick(PPCtx *ctx, int kind)
{
    PyObject *gen = ctx->owner;
    PyObject *pool = gdr(gen, PPK_pool);
    long long gap, minns;
    if (pool == NULL)
        return NULL;
    if (pool == Py_None)
        return PyObject_CallOneArg(pps.gen_ticks[kind], gen);
    if (pp_gen_emit(ctx, gen) < 0)
        return NULL;
    if (kind == 2) {
        long long bp, bs;
        PyObject *rng;
        if (gll(gen, PPK__burst_position, &bp) < 0 ||
            gll(gen, PPK_burst_size, &bs) < 0)
            return NULL;
        bp += 1;
        if (bp < bs) {
            if (sll(gen, PPK__burst_position, bp) < 0)
                return NULL;
            if (gll(gen, PPK_min_interval_ns, &minns) < 0)
                return NULL;
            if (pp_gen_schedule(ctx, gen, minns, PPK__tick) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        if (sll(gen, PPK__burst_position, 0) < 0)
            return NULL;
        if (gll(gen, PPK_gap_ns, &gap) < 0)
            return NULL;
        rng = gdr(gen, PPK_rng);
        if (rng == NULL)
            return NULL;
        if (rng != Py_None && gap > 0) {
            double r, u;
            if (pp_rng_random(ctx, PPK_rng, &r) < 0)
                return NULL;
            u = 0.5 + (1.5 - 0.5) * r;  /* uniform(0.5, 1.5) */
            gap = (long long)((double)gap * u);
        }
        if (gap > 0) {
            if (pp_gen_schedule(ctx, gen, gap, PPK__gap_over) < 0)
                return NULL;
        }
        else {
            if (gll(gen, PPK_min_interval_ns, &minns) < 0)
                return NULL;
            if (pp_gen_schedule(ctx, gen, minns, PPK__tick) < 0)
                return NULL;
        }
        Py_RETURN_NONE;
    }
    if (kind == 0) {
        double jf;
        if (gll(gen, PPK_interval_ns, &gap) < 0)
            return NULL;
        if (gdbl(gen, PPK_jitter_fraction, &jf) < 0)
            return NULL;
        if (jf > 0.0) {
            double r, a, b, u;
            if (pp_rng_random(ctx, PPK_rng, &r) < 0)
                return NULL;
            a = 1.0 - jf;
            b = 1.0 + jf;
            u = a + (b - a) * r;  /* uniform(1-jf, 1+jf) */
            gap = (long long)((double)gap * u);
            if (gll(gen, PPK_min_interval_ns, &minns) < 0)
                return NULL;
            if (gap < minns)
                gap = minns;
        }
    }
    else {
        double r, e, mean;
        if (pp_rng_random(ctx, PPK_rng, &r) < 0)
            return NULL;
        e = -log(1.0 - r);  /* expovariate(1.0) */
        if (gdbl(gen, PPK_mean_interval_ns, &mean) < 0)
            return NULL;
        gap = (long long)(e * mean);
        if (gll(gen, PPK_min_interval_ns, &minns) < 0)
            return NULL;
        if (gap < minns)
            gap = minns;
    }
    if (pp_gen_schedule(ctx, gen, gap, PPK__tick) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ppf_gen_tick_constant(PyObject *self, PyObject *noarg)
{
    (void)noarg;
    return pp_gen_tick((PPCtx *)self, 0);
}

static PyObject *
ppf_gen_tick_poisson(PyObject *self, PyObject *noarg)
{
    (void)noarg;
    return pp_gen_tick((PPCtx *)self, 1);
}

static PyObject *
ppf_gen_tick_bursty(PyObject *self, PyObject *noarg)
{
    (void)noarg;
    return pp_gen_tick((PPCtx *)self, 2);
}

static PyObject *
ppf_gen_gap_over(PyObject *self, PyObject *noarg)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *gen = ctx->owner;
    long long minns;
    (void)noarg;
    if (gll(gen, PPK_min_interval_ns, &minns) < 0)
        return NULL;
    if (pp_gen_schedule(ctx, gen, minns, PPK__tick) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef def_nic_receive = {
    "receive_from_wire", (PyCFunction)ppf_nic_receive, METH_O, NULL};
static PyMethodDef def_nic_rx_pull = {
    "rx_pull", (PyCFunction)ppf_nic_rx_pull, METH_NOARGS, NULL};
static PyMethodDef def_nic_rx_pull_many = {
    "rx_pull_many", (PyCFunction)(void (*)(void))ppf_nic_rx_pull_many,
    METH_FASTCALL | METH_KEYWORDS, NULL};
static PyMethodDef def_nic_rx_pending = {
    "rx_pending", (PyCFunction)ppf_nic_rx_pending, METH_NOARGS, NULL};
static PyMethodDef def_nic_tx_done = {
    "tx_done_slots", (PyCFunction)ppf_nic_tx_done, METH_NOARGS, NULL};
static PyMethodDef def_nic_tx_enqueue = {
    "tx_enqueue", (PyCFunction)ppf_nic_tx_enqueue, METH_O, NULL};
static PyMethodDef def_nic_tx_reclaim = {
    "tx_reclaim", (PyCFunction)ppf_nic_tx_reclaim, METH_NOARGS, NULL};
static PyMethodDef def_nic_txcomplete = {
    "_transmit_complete", (PyCFunction)ppf_nic_txcomplete, METH_O, NULL};
static PyMethodDef def_pq_enqueue = {
    "enqueue", (PyCFunction)ppf_pq_enqueue, METH_O, NULL};
static PyMethodDef def_pq_dequeue = {
    "dequeue", (PyCFunction)ppf_pq_dequeue, METH_NOARGS, NULL};
static PyMethodDef def_ip_dispatch = {
    "_dispatch", (PyCFunction)ppf_ip_dispatch, METH_O, NULL};
static PyMethodDef def_line_request = {
    "request", (PyCFunction)ppf_line_request, METH_NOARGS, NULL};
static PyMethodDef def_ipinput_enqueue = {
    "enqueue", (PyCFunction)ppf_ipinput_enqueue, METH_O, NULL};
static PyMethodDef def_driver_output_irq = {
    "output", (PyCFunction)ppf_driver_output_irq, METH_O, NULL};
static PyMethodDef def_driver_output_poll = {
    "output", (PyCFunction)ppf_driver_output_poll, METH_O, NULL};
static PyMethodDef def_driver_output_plain = {
    "output", (PyCFunction)ppf_driver_output_plain, METH_O, NULL};
static PyMethodDef def_router_out = {
    "_on_output_transmit", (PyCFunction)ppf_router_out_transmit, METH_O,
    NULL};
static PyMethodDef def_gen_tick_constant = {
    "_tick", (PyCFunction)ppf_gen_tick_constant, METH_NOARGS, NULL};
static PyMethodDef def_gen_tick_poisson = {
    "_tick", (PyCFunction)ppf_gen_tick_poisson, METH_NOARGS, NULL};
static PyMethodDef def_gen_tick_bursty = {
    "_tick", (PyCFunction)ppf_gen_tick_bursty, METH_NOARGS, NULL};
static PyMethodDef def_gen_gap_over = {
    "_gap_over", (PyCFunction)ppf_gen_gap_over, METH_NOARGS, NULL};

/* ---- Compiled task bodies (drivers, interrupts, kernel threads) ------
 *
 * The pieces declared above (PPIrq proto, PPGen state machine) are
 * implemented here. A PPGen replays one Python task body — a driver
 * handler generator, including the InterruptController._handler_body
 * dispatch prelude, or a kernel thread — as a C state machine with the
 * PyIter_Send calling convention, so pp_deliver_impl drives it exactly
 * like a Python generator. Costs are captured at the same resume
 * boundaries as the Python closures, every NIC/queue/IP call goes
 * through the live instance attribute (compiled while installed, pure
 * Python after uninstall), and rare branches (taps, screend, corrupted
 * frames, foreign payloads) pump the real ``ip.input_packet`` generator
 * via g->sub.
 *
 * Every receive context runs one drain sub-state (GS_DR_*, the port of
 * drivers/base.py drain), the way every TX path runs GS_TS_*. Its stop
 * tests re-read live state before every packet where the Python does:
 * the clocked quota (mitigation retunes it) and the polling system's
 * input inhibition. */

/* Machine states. */
enum {
    GS_PRELUDE,       /* maybe yield line._dispatch_work */
    GS_START,         /* per-kind first-resume captures */
    GS_RETURN,        /* the body returns */
    GS_BSDRX_HEAD, GS_BSDRX_PROC,
    GS_BSDTX_HEAD, GS_BSDTX_AFTER,
    GS_TS_ENTER, GS_TS_RECLAIM, GS_TS_LOOP, GS_TS_BODY,  /* _tx_service */
    GS_DR_HEAD, GS_DR_PKT, GS_DR_DONE,                   /* drain */
    GS_DR_BATCH, GS_DR_BLOOP, GS_DR_BPKT, GS_DR_BDONE,
    GS_IP_ENTER, GS_IP_FORWARD,                  /* ip.input_packet */
    GS_HI_HEAD, GS_HI_POST, GS_HI_AFTER,
    GS_STUB_RESUME,
    GS_CLOCK_BODY, GS_CLOCK_CALLOUTS, GS_CLOCK_RUN,
    GS_POLL_PASS, GS_POLL_LIMIT, GS_POLL_ROUND, GS_POLL_DEV,
    GS_POLL_RX, GS_POLL_RXDONE, GS_POLL_TX, GS_POLL_TXDONE,
    GS_POLL_ENDPASS, GS_POLL_CHARGE, GS_POLL_IDLE, GS_POLL_WOKE,
    GS_NAPI_TOP, GS_NAPI_WOKE, GS_NAPI_PASS, GS_NAPI_RX, GS_NAPI_RXDONE,
    GS_NAPI_TXDONE,
    GS_CLK_TOP, GS_CLK_POLL, GS_CLK_RX, GS_CLK_RXDONE, GS_CLK_TXDONE,
    GS_NETISR_DRAIN, GS_NETISR_WAIT,
    GS_IDLE_LOOP,
};

static PyObject *  /* new ref */
pp_meth0(PyObject *obj, int key)
{
    PyObject *m = PyObject_GetAttr(obj, pp_keys[key]);
    PyObject *r;
    if (m == NULL)
        return NULL;
    r = PyObject_CallNoArgs(m);
    Py_DECREF(m);
    return r;
}

static PyObject *  /* new ref */
pp_meth1(PyObject *obj, int key, PyObject *arg)
{
    PyObject *m = PyObject_GetAttr(obj, pp_keys[key]);
    PyObject *r;
    if (m == NULL)
        return NULL;
    r = PyObject_CallOneArg(m, arg);
    Py_DECREF(m);
    return r;
}

/* Truth of obj.<key>. */
static int
pp_truth(PyObject *obj, int key)
{
    PyObject *v = gdr(obj, key);
    return v == NULL ? -1 : PyObject_IsTrue(v);
}

/* drv.kernel.config.rx_batch_pull */
static int
pp_batch_pull(PyObject *drv, int *out)
{
    PyObject *kernel = gdr(drv, PPK_kernel);
    PyObject *config = kernel ? gdr(kernel, PPK_config) : NULL;
    *out = config ? pp_truth(config, PPK_rx_batch_pull) : -1;
    return *out < 0 ? -1 : 0;
}

/* A quota value: None (unbounded) or an int. */
static int
pp_quota(PyObject *q, int *bounded, long long *limit)
{
    if (q == NULL)
        return -1;
    *bounded = q != Py_None;
    if (!*bounded)
        return 0;
    *limit = PyLong_AsLongLong(q);
    return *limit == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
pp_work_cycles(PyObject *work, long long *out)
{
    PyObject *cyc = slot_get(work, pps.off_work_cycles);
    if (cyc == NULL) {
        PyErr_SetString(PyExc_AttributeError,
                        "packetpath: Work cycles unset");
        return -1;
    }
    *out = PyLong_AsLongLong(cyc);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* nic.tx_free_slots() == tx_ring_capacity - len(_tx_ring), exact. */
static int
pp_tx_free(PyObject *nic, long long *out)
{
    PyObject *ring;
    long long cap;
    Py_ssize_t n;
    if (gll(nic, PPK_tx_ring_capacity, &cap) < 0)
        return -1;
    ring = gdr(nic, PPK__tx_ring);
    if (ring == NULL)
        return -1;
    n = PyObject_Length(ring);
    if (n < 0)
        return -1;
    *out = cap - (long long)n;
    return 0;
}

static int
pp_ifq_len(PyObject *drv, Py_ssize_t *out)
{
    PyObject *q = gdr(drv, PPK_ifqueue), *items;
    if (q == NULL)
        return -1;
    items = gdr(q, PPK__items);
    if (items == NULL)
        return -1;
    *out = PyObject_Length(items);
    return *out < 0 ? -1 : 0;
}

/* drv.nic.rx_pending(), through the live attribute (a fault plan may
 * stall the ring). */
static int
pp_rx_pending(PyObject *drv, long long *out)
{
    PyObject *nic = gdr(drv, PPK_nic);
    PyObject *r = nic ? pp_meth0(nic, PPK_rx_pending) : NULL;
    if (r == NULL)
        return -1;
    *out = PyLong_AsLongLong(r);
    Py_DECREF(r);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* ``nic.tx_done_slots() > 0 or (not ifqueue.empty and
 * nic.tx_free_slots() > 0)``: TX work is waiting. 1, 0, or -1. */
static int
pp_tx_work(PyObject *drv)
{
    PyObject *nic = gdr(drv, PPK_nic);
    long long done, freeslots;
    Py_ssize_t qlen;
    if (nic == NULL || gll(nic, PPK__tx_done, &done) < 0)
        return -1;
    if (done > 0)
        return 1;
    if (pp_ifq_len(drv, &qlen) < 0)
        return -1;
    if (qlen == 0)
        return 0;
    if (pp_tx_free(nic, &freeslots) < 0)
        return -1;
    return freeslots > 0;
}

/* InterruptLine.enable */
static int
pp_line_enable(PyObject *line)
{
    PyObject *ctrl, *r;
    int t = pp_truth(line, PPK_enabled);
    if (t != 0)
        return t < 0 ? -1 : 0;
    if (sd(line, PPK_enabled, Py_True) < 0)
        return -1;
    ctrl = gdr(line, PPK_controller);
    if (ctrl == NULL)
        return -1;
    r = pp_meth1(ctrl, PPK_try_deliver, line);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* line.request() when ``pending > 0``. */
static int
pp_request_if(PyObject *line, long long pending)
{
    PyObject *r;
    if (pending <= 0)
        return 0;
    r = pp_meth0(line, PPK_request);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* trace.record(QUOTA_EXHAUST, drv.name, handled, pending) if armed. */
static int
pp_record_exhaust(PyObject *trace, PyObject *drv, long long handled,
                  long long pending)
{
    PyObject *name = gdr(drv, PPK_name);
    PyObject *h = name ? PyLong_FromLongLong(handled) : NULL;
    PyObject *pn = h ? PyLong_FromLongLong(pending) : NULL;
    int rc = pn ? pp_trace(trace, PPK_record, 4, pps.kinds[TK_QUOTA_EXHAUST],
                           name, h, pn)
                : -1;
    Py_XDECREF(h);
    Py_XDECREF(pn);
    return rc;
}

/* CycleLimiter.charge */
static int
pp_limiter_charge(PyObject *lim, long long cycles)
{
    PyObject *polling, *reason, *reasons, *ctr, *trace, *r;
    long long used, threshold;
    int t;
    if (cycles < 0) {
        PyErr_SetString(PyExc_ValueError, "cannot charge negative cycles");
        return -1;
    }
    if (gll(lim, PPK_used_cycles, &used) < 0 ||
        sll(lim, PPK_used_cycles, used + cycles) < 0 ||
        gll(lim, PPK_threshold_cycles, &threshold) < 0)
        return -1;
    used += cycles;
    if (used <= threshold)
        return 0;
    polling = gdr(lim, PPK_polling);
    if (polling == NULL)
        return -1;
    if (polling == Py_None)
        return 0;
    reason = PyObject_GetAttr(lim, pp_keys[PPK_REASON]);
    if (reason == NULL)
        return -1;
    reasons = gdr(polling, PPK__inhibit_reasons);
    t = reasons == NULL ? -1 : PySequence_Contains(reasons, reason);
    if (t != 0) {         /* already inhibited (or an error) */
        Py_DECREF(reason);
        return t < 0 ? -1 : 0;
    }
    ctr = gdr(lim, PPK_inhibitions);
    if (ctr == NULL || counter_inc(ctr, 1) < 0 ||
        (trace = gdr(lim, PPK_trace)) == NULL ||
        (trace != Py_None &&
         pp_record_ll(trace, TK_CYCLE_LIMIT, reason, used) < 0)) {
        Py_DECREF(reason);
        return -1;
    }
    r = pp_meth1(polling, PPK_inhibit_input, reason);
    Py_DECREF(reason);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ---- PPGen: the body state machine ---------------------------------- */

static int
ppgen_traverse(PPGenObject *g, visitproc visit, void *arg)
{
    Py_VISIT(g->proto);
    Py_VISIT(g->dev);
    Py_VISIT(g->sub);
    Py_VISIT(g->packet);
    Py_VISIT(g->batch);
    Py_VISIT(g->work);
    Py_VISIT(g->wait);
    Py_VISIT(g->sleep);
    return 0;
}

static int
ppgen_clear(PPGenObject *g)
{
    Py_CLEAR(g->proto);
    Py_CLEAR(g->dev);
    Py_CLEAR(g->sub);
    Py_CLEAR(g->packet);
    Py_CLEAR(g->batch);
    Py_CLEAR(g->work);
    Py_CLEAR(g->wait);
    Py_CLEAR(g->sleep);
    return 0;
}

static void
ppgen_dealloc(PPGenObject *g)
{
    PyObject_GC_UnTrack(g);
    ppgen_clear(g);
    PyObject_GC_Del(g);
}

/* Yield ``cycles`` of work: refresh the reusable Work command and hand
 * it out. Identity is unobservable — the Python bodies also yield
 * shared Work objects, and pp_deliver_impl only reads .cycles. */
static PySendResult
ppgen_yield(PPGenObject *g, long long cycles, int next_state, PyObject **pres)
{
    PyObject *cyc = PyLong_FromLongLong(cycles);
    if (cyc == NULL) {
        g->closed = 1;
        *pres = NULL;
        return PYGEN_ERROR;
    }
    slot_set(g->work, pps.off_work_cycles, cyc);
    g->state = next_state;
    Py_INCREF(g->work);
    *pres = g->work;
    return PYGEN_NEXT;
}

/* Yield a Sleep of ``ns``, reusing the body's Sleep command. */
static PySendResult
ppgen_sleep(PPGenObject *g, long long ns, int next_state, PyObject **pres)
{
    PyObject *nsobj = PyLong_FromLongLong(ns);
    if (nsobj == NULL) {
        g->closed = 1;
        *pres = NULL;
        return PYGEN_ERROR;
    }
    slot_set(g->sleep, pps.off_sleep_ns, nsobj);
    g->state = next_state;
    Py_INCREF(g->sleep);
    *pres = g->sleep;
    return PYGEN_NEXT;
}

/* Yield the body's WaitSignal command. */
static PySendResult
ppgen_wait(PPGenObject *g, int next_state, PyObject **pres)
{
    g->state = next_state;
    Py_INCREF(g->wait);
    *pres = g->wait;
    return PYGEN_NEXT;
}

/* Build the thread's reusable commands: WaitSignal(signal) unless
 * ``signal`` is NULL, and a Sleep when ``sleep``. */
static int
ppgen_commands(PPGenObject *g, PyObject *signal, int sleep)
{
    if (signal != NULL) {
        g->wait = PyObject_CallOneArg(pps.WaitSignal, signal);
        if (g->wait == NULL)
            return -1;
    }
    else if (PyErr_Occurred())
        return -1;
    if (sleep) {
        PyObject *zero = PyLong_FromLong(0);
        if (zero == NULL)
            return -1;
        g->sleep = PyObject_CallOneArg(pps.Sleep, zero);
        Py_DECREF(zero);
        if (g->sleep == NULL)
            return -1;
    }
    return 0;
}

/* Enter the drain sub-state; it continues at ``ret`` with the count in
 * g->dr_handled. */
static void
ppgen_drain(PPGenObject *g, int flags, long long limit, long long cycles,
            int ret)
{
    g->dr_flags = flags;
    g->dr_limit = limit;
    g->dr_cycles = cycles;
    g->dr_ret = ret;
    g->dr_handled = 0;
    g->state = flags & DR_BATCH ? GS_DR_BATCH : GS_DR_HEAD;
}

/* Enter _tx_service(quota); it continues at ``ret`` with g->moved. */
static int
ppgen_tx_service(PPGenObject *g, PyObject *quota, int ret)
{
    int bounded;
    if (pp_quota(quota, &bounded, &g->tsq) < 0)
        return -1;
    g->tsq_none = !bounded;
    g->ts_ret = ret;
    g->state = GS_TS_ENTER;
    return 0;
}

static PySendResult
ppgen_send(PPGenObject *g, PyObject *value, PyObject **pres)
{
    PPIrq *p = g->proto;
    PyObject *drv, *dev;
    if (g->closed) {
        /* Exhausted generator: Python's .send raises StopIteration,
         * which PyIter_Send maps to PYGEN_RETURN None. */
        Py_INCREF(Py_None);
        *pres = Py_None;
        return PYGEN_RETURN;
    }
    if (p == NULL) {
        PyErr_SetString(PyExc_SystemError, "packetpath: PPGen without proto");
        goto fail;
    }
    drv = p->owner;
    for (;;) {
        /* Active Python sub-generator (the yield-from escape). */
        if (g->sub != NULL) {
            PyObject *sc = NULL;
            PySendResult ssr = pp_send_py(g->sub, value, &sc);
            if (ssr == PYGEN_NEXT) {
                *pres = sc;
                return PYGEN_NEXT;
            }
            Py_CLEAR(g->sub);
            if (ssr == PYGEN_ERROR)
                goto fail;
            Py_XDECREF(sc);
            value = Py_None;
            /* fall through to the stored continuation state */
        }
        dev = g->dev;
        switch (g->state) {

        case GS_PRELUDE: {
            /* InterruptController._handler_body dispatch prelude. */
            PyObject *dw = gdr(p->line, PPK__dispatch_work);
            long long c;
            if (dw == NULL)
                goto fail;
            if (dw == Py_None) {
                g->state = GS_START;
                break;
            }
            if (pp_work_cycles(dw, &c) < 0)
                goto fail;
            return ppgen_yield(g, c, GS_START, pres);
        }

        case GS_START: {
            /* First resume of the body: the Python closures capture
             * their per-dispatch costs here. */
            PyObject *costs = gdr(drv, PPK_costs);
            if (costs == NULL)
                goto fail;
            switch (p->kind) {
            case PPIRQ_BSD_RX: {
                long long per, extra, post;
                if (gll(costs, PPK_rx_device_per_packet, &per) < 0 ||
                    gll(drv, PPK_extra_rx_cycles, &extra) < 0 ||
                    gll(costs, PPK_softirq_post, &post) < 0)
                    goto fail;
                g->c1 = per + extra;
                g->c2 = post;
                g->state = GS_BSDRX_HEAD;
                break;
            }
            case PPIRQ_BSD_TX:
                g->state = GS_BSDTX_HEAD;
                break;
            case PPIRQ_HIGHIPL:
                if (pp_batch_pull(drv, &g->batch_pull) < 0 ||
                    gll(costs, PPK_polled_rx_per_packet, &g->c1) < 0)
                    goto fail;
                g->state = GS_HI_HEAD;
                break;
            case PPT_CLOCKED: {
                long long over, check;
                if (pp_batch_pull(drv, &g->batch_pull) < 0 ||
                    gll(drv, PPK_poll_interval_ns, &g->c3) < 0 ||
                    gll(costs, PPK_poll_loop_overhead, &over) < 0 ||
                    gll(costs, PPK_poll_device_check, &check) < 0 ||
                    gll(costs, PPK_polled_rx_per_packet, &g->c2) < 0 ||
                    ppgen_commands(g, NULL, 1) < 0)
                    goto fail;
                g->c1 = over + check;
                g->state = GS_CLK_TOP;
                break;
            }
            /* The stubs: the service flag each one sets. */
            case PPIRQ_POLLED_RX:
                g->flag = PPK_rx_service_needed;
                goto stub;
            case PPIRQ_POLLED_TX:
                g->flag = PPK_tx_service_needed;
                goto stub;
            case PPIRQ_HYBRID_RX:
                g->flag = PPK_rx_service_needed;
                goto stub;
            case PPIRQ_HYBRID_TX:
                g->flag = PPK_tx_service_needed;
            stub: {
                long long c;
                if (gll(costs, PPK_polled_stub_handler, &c) < 0)
                    goto fail;
                return ppgen_yield(g, c, GS_STUB_RESUME, pres);
            }
            case PPIRQ_SOFTNET:
                if (gll(costs, PPK_ipintrq_dequeue, &g->c1) < 0)
                    goto fail;
                ppgen_drain(g, DR_IPINTRQ | DR_ACK, 0, g->c1, GS_RETURN);
                break;
            case PPIRQ_CLOCK:
                /* drv is the Kernel here. */
                if (gll(costs, PPK_clock_tick, &g->c1) < 0 ||
                    gll(costs, PPK_callout_run, &g->c2) < 0)
                    goto fail;
                return ppgen_yield(g, g->c1, GS_CLOCK_BODY, pres);
            case PPT_POLL: {
                /* cpu = self.kernel.cpu, for read_cycle_counter(). */
                PyObject *kernel = gdr(drv, PPK_kernel);
                PyObject *cpu = kernel ? gdr(kernel, PPK_cpu) : NULL;
                if (cpu == NULL || gll(cpu, PPK_hz, &g->c3) < 0 ||
                    ppgen_commands(g, gdr(drv, PPK__signal), 0) < 0)
                    goto fail;
                g->state = GS_POLL_PASS;
                break;
            }
            case PPT_NAPI: {
                long long over, check;
                int bounded;
                if (gll(costs, PPK_poll_loop_overhead, &over) < 0 ||
                    gll(costs, PPK_poll_device_check, &check) < 0 ||
                    gll(costs, PPK_polled_rx_per_packet, &g->c2) < 0 ||
                    pp_quota(gdr(drv, PPK_quota), &bounded, &g->quota) < 0 ||
                    ppgen_commands(g, gdr(drv, PPK__signal), 1) < 0)
                    goto fail;
                g->c1 = over + check;
                g->bounded = bounded;
                g->state = GS_NAPI_TOP;
                break;
            }
            case PPT_NETISR:
                if (gll(costs, PPK_ipintrq_dequeue, &g->c1) < 0 ||
                    ppgen_commands(g, gdr(drv, PPK__netisr_signal), 0) < 0)
                    goto fail;
                g->state = GS_NETISR_DRAIN;
                break;
            case PPT_IDLE: {
                /* costs.cpu_hz // 1_000_000 * IDLE_CHUNK_US */
                PyObject *us = pp_import_attr("repro.kernel.kernel",
                                              "IDLE_CHUNK_US");
                long long hz, chunk;
                if (us == NULL)
                    goto fail;
                chunk = PyLong_AsLongLong(us);
                Py_DECREF(us);
                if ((chunk == -1 && PyErr_Occurred()) ||
                    gll(costs, PPK_cpu_hz, &hz) < 0)
                    goto fail;
                g->c1 = hz / 1000000 * chunk;
                g->state = GS_IDLE_LOOP;
                break;
            }
            default:
                PyErr_SetString(PyExc_SystemError,
                                "packetpath: unknown PPGen kind");
                goto fail;
            }
            break;
        }

        case GS_RETURN:
            goto finish;

        /* ---- BsdDriver._rx_handler -------------------------------- */

        case GS_BSDRX_HEAD: {
            PyObject *packet, *nic;
            int t = pp_truth(p->line, PPK_enabled);
            if (t < 0)
                goto fail;
            if (!t)
                goto finish;          /* rate-limit feedback stop */
            if (sd(p->line, PPK_requested, Py_False) < 0)
                goto fail;            /* rx_line.acknowledge() */
            nic = gdr(drv, PPK_nic);
            if (nic == NULL)
                goto fail;
            packet = pp_meth0(nic, PPK_rx_pull);
            if (packet == NULL)
                goto fail;
            if (packet == Py_None) {
                Py_DECREF(packet);
                goto finish;
            }
            if (sd(drv, PPK_in_flight, packet) < 0) {
                Py_DECREF(packet);
                goto fail;
            }
            Py_XSETREF(g->packet, packet);
            return ppgen_yield(g, g->c1, GS_BSDRX_PROC, pres);
        }

        case GS_BSDRX_PROC: {
            PyObject *ctr, *ipin, *res;
            int accepted;
            ctr = gdr(drv, PPK_rx_packets_processed);
            if (ctr == NULL || counter_inc(ctr, 1) < 0)
                goto fail;
            ipin = gdr(drv, PPK_ip_input);
            if (ipin == NULL)
                goto fail;
            res = pp_meth1(ipin, PPK_enqueue, g->packet);
            if (res == NULL)
                goto fail;
            accepted = PyObject_IsTrue(res);
            Py_DECREF(res);
            if (accepted < 0)
                goto fail;
            if (sd(drv, PPK_in_flight, Py_None) < 0)
                goto fail;
            Py_CLEAR(g->packet);
            if (accepted)
                return ppgen_yield(g, g->c2, GS_BSDRX_HEAD, pres);
            g->state = GS_BSDRX_HEAD;
            break;
        }

        /* ---- BsdDriver._tx_handler -------------------------------- */

        case GS_BSDTX_HEAD:
            if (sd(p->line, PPK_requested, Py_False) < 0)
                goto fail;            /* tx_line.acknowledge() */
            if (ppgen_tx_service(g, Py_None, GS_BSDTX_AFTER) < 0)
                goto fail;
            break;

        case GS_BSDTX_AFTER: {
            PyObject *nic = gdr(drv, PPK_nic);
            long long done, freeslots;
            if (nic == NULL || gll(nic, PPK__tx_done, &done) < 0)
                goto fail;
            if (done == 0) {
                Py_ssize_t qlen;
                if (pp_ifq_len(drv, &qlen) < 0)
                    goto fail;
                if (qlen == 0)
                    goto finish;
                if (pp_tx_free(nic, &freeslots) < 0)
                    goto fail;
                if (freeslots == 0)
                    goto finish;
                if (g->moved == 0)
                    goto finish;
            }
            g->state = GS_BSDTX_HEAD;
            break;
        }

        /* ---- Driver._tx_service (every TX path, on g->dev) -------- */

        case GS_TS_ENTER: {
            PyObject *nic = gdr(dev, PPK_nic);
            long long done;
            if (nic == NULL || gll(nic, PPK__tx_done, &done) < 0)
                goto fail;
            if (done > 0) {
                PyObject *costs = gdr(dev, PPK_costs);
                long long per;
                if (costs == NULL ||
                    gll(costs, PPK_tx_reclaim_per_packet, &per) < 0)
                    goto fail;
                return ppgen_yield(g, per * done, GS_TS_RECLAIM, pres);
            }
            g->moved = 0;
            g->state = GS_TS_LOOP;
            break;
        }

        case GS_TS_RECLAIM: {
            PyObject *nic = gdr(dev, PPK_nic), *r;
            if (nic == NULL)
                goto fail;
            r = pp_meth0(nic, PPK_tx_reclaim);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            g->moved = 0;
            g->state = GS_TS_LOOP;
            break;
        }

        case GS_TS_LOOP: {
            PyObject *nic, *tsw;
            long long freeslots, c;
            Py_ssize_t qlen;
            if (!(g->tsq_none || g->moved < g->tsq)) {
                g->state = g->ts_ret;
                break;
            }
            nic = gdr(dev, PPK_nic);
            if (nic == NULL || pp_tx_free(nic, &freeslots) < 0)
                goto fail;
            if (freeslots <= 0) {
                g->state = g->ts_ret;
                break;
            }
            if (pp_ifq_len(dev, &qlen) < 0)
                goto fail;
            if (qlen == 0) {
                g->state = g->ts_ret;
                break;
            }
            tsw = gdr(dev, PPK__tx_start_work);
            if (tsw == NULL || pp_work_cycles(tsw, &c) < 0)
                goto fail;
            return ppgen_yield(g, c, GS_TS_BODY, pres);
        }

        case GS_TS_BODY: {
            PyObject *q = gdr(dev, PPK_ifqueue), *nic, *packet, *r, *ctr;
            if (q == NULL)
                goto fail;
            packet = pp_meth0(q, PPK_dequeue);
            if (packet == NULL)
                goto fail;
            if (packet == Py_None) {
                Py_DECREF(packet);
                g->state = g->ts_ret;
                break;
            }
            nic = gdr(dev, PPK_nic);
            if (nic == NULL) {
                Py_DECREF(packet);
                goto fail;
            }
            r = pp_meth1(nic, PPK_tx_enqueue, packet);
            Py_DECREF(packet);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            ctr = gdr(dev, PPK_tx_packets_started);
            if (ctr == NULL || counter_inc(ctr, 1) < 0)
                goto fail;
            g->moved += 1;
            g->state = GS_TS_LOOP;
            break;
        }

        /* ---- drain (drivers/base.py), on g->dev ------------------- */

        case GS_DR_HEAD: {
            PyObject *src, *packet;
            int flags = g->dr_flags;
            if (flags & (DR_BOUND | DR_LIVE)) {
                int bounded = 1;
                long long limit = g->dr_limit;
                if (flags & DR_LIVE &&
                    pp_quota(gdr(dev, PPK_quota), &bounded, &limit) < 0)
                    goto fail;
                if (bounded && g->dr_handled >= limit) {
                    g->state = g->dr_ret;
                    break;
                }
            }
            if (flags & DR_GATE) {
                PyObject *polling = gdr(dev, PPK_polling);
                int t;
                if (polling == NULL)
                    goto fail;
                if (polling != Py_None) {
                    /* not polling.input_allowed */
                    t = pp_truth(polling, PPK__inhibit_reasons);
                    if (t < 0)
                        goto fail;
                    if (t) {
                        g->state = g->dr_ret;
                        break;
                    }
                }
            }
            if (flags & DR_ACK &&
                sd(p->line, PPK_requested, Py_False) < 0)
                goto fail;            /* acknowledge() */
            if (flags & DR_IPINTRQ) {
                src = gdr(dev, PPK_ipintrq);
                packet = src ? pp_meth0(src, PPK_dequeue) : NULL;
            } else {
                src = gdr(dev, PPK_nic);
                packet = src ? pp_meth0(src, PPK_rx_pull) : NULL;
            }
            if (packet == NULL)
                goto fail;
            if (packet == Py_None) {
                Py_DECREF(packet);
                g->state = g->dr_ret;
                break;
            }
            if (sd(dev, PPK_in_flight, packet) < 0) {
                Py_DECREF(packet);
                goto fail;
            }
            Py_XSETREF(g->packet, packet);
            return ppgen_yield(g, g->dr_cycles, GS_DR_PKT, pres);
        }

        case GS_DR_PKT:
        case GS_DR_BPKT:
            if (g->dr_flags & DR_COUNT) {
                PyObject *ctr = gdr(dev, PPK_rx_packets_processed);
                if (ctr == NULL || counter_inc(ctr, 1) < 0)
                    goto fail;
            }
            g->ip_cont = g->state == GS_DR_PKT ? GS_DR_DONE : GS_DR_BDONE;
            g->state = GS_IP_ENTER;
            break;

        case GS_DR_DONE:
            if (sd(dev, PPK_in_flight, Py_None) < 0)
                goto fail;
            Py_CLEAR(g->packet);
            g->dr_handled += 1;
            g->state = GS_DR_HEAD;
            break;

        case GS_DR_BATCH: {
            /* The pulled batch lives only in this frame, so expose it
             * (oldest last, consumed by pop) for mid-flight teardown. */
            PyObject *nic = gdr(dev, PPK_nic), *quota, *batch;
            if (nic == NULL)
                goto fail;
            if (g->dr_flags & DR_LIVE) {
                quota = gdr(dev, PPK_quota);
                if (quota == NULL)
                    goto fail;
                Py_INCREF(quota);
            } else if (g->dr_flags & DR_BOUND) {
                quota = PyLong_FromLongLong(g->dr_limit);
                if (quota == NULL)
                    goto fail;
            } else {
                quota = Py_None;
                Py_INCREF(quota);
            }
            batch = pp_meth1(nic, PPK_rx_pull_many, quota);
            Py_DECREF(quota);
            if (batch == NULL)
                goto fail;
            if (!PyList_Check(batch)) {
                Py_DECREF(batch);
                PyErr_SetString(PyExc_TypeError,
                                "packetpath: rx_pull_many must return a list");
                goto fail;
            }
            if (PyList_Reverse(batch) < 0 ||
                sd(dev, PPK_in_flight, batch) < 0) {
                Py_DECREF(batch);
                goto fail;
            }
            Py_XSETREF(g->batch, batch);
            g->state = GS_DR_BLOOP;
            break;
        }

        case GS_DR_BLOOP: {
            Py_ssize_t n;
            PyObject *pkt;
            if (g->batch == NULL) {
                PyErr_SetString(PyExc_SystemError, "packetpath: batch lost");
                goto fail;
            }
            n = PyList_GET_SIZE(g->batch);
            if (n == 0) {
                if (sd(dev, PPK_in_flight, Py_None) < 0)
                    goto fail;
                Py_CLEAR(g->batch);
                g->state = g->dr_ret;
                break;
            }
            pkt = PyList_GET_ITEM(g->batch, n - 1);
            Py_INCREF(pkt);
            Py_XSETREF(g->packet, pkt);
            return ppgen_yield(g, g->dr_cycles, GS_DR_BPKT, pres);
        }

        case GS_DR_BDONE: {
            Py_ssize_t n;
            if (g->batch == NULL) {
                PyErr_SetString(PyExc_SystemError, "packetpath: batch lost");
                goto fail;
            }
            n = PyList_GET_SIZE(g->batch);
            if (n > 0 &&
                PyList_SetSlice(g->batch, n - 1, n, NULL) < 0)
                goto fail;            /* batch.pop() */
            g->dr_handled += 1;
            Py_CLEAR(g->packet);
            g->state = GS_DR_BLOOP;
            break;
        }

        /* ---- IPLayer.input_packet (common case inline) ------------ */

        case GS_IP_ENTER: {
            PyObject *ip = gdr(dev, PPK_ip), *taps, *screen, *corr;
            int corrupted = 1;
            if (ip == NULL)
                goto fail;
            taps = gdr(ip, PPK_taps);
            if (taps == NULL)
                goto fail;
            screen = gdr(ip, PPK_screen_path);
            if (screen == NULL)
                goto fail;
            if ((PyObject *)Py_TYPE(g->packet) == pps.Packet) {
                corr = slot_get(g->packet, pps.off_pk[PK_corrupted]);
                if (corr == NULL) {
                    PyErr_SetString(PyExc_AttributeError,
                                    "packetpath: corrupted unset");
                    goto fail;
                }
                corrupted = PyObject_IsTrue(corr);
                if (corrupted < 0)
                    goto fail;
            }
            if (!corrupted && PyList_Check(taps) &&
                PyList_GET_SIZE(taps) == 0 && screen == Py_None) {
                PyObject *fw = gdr(ip, PPK__forward_work);
                long long c;
                if (fw == NULL || pp_work_cycles(fw, &c) < 0)
                    goto fail;
                return ppgen_yield(g, c, GS_IP_FORWARD, pres);
            }
            /* Rare branch (corrupted frame, taps, screend, foreign
             * payload): pump the real Python generator. */
            {
                PyObject *subgen = pp_meth1(ip, PPK_input_packet, g->packet);
                if (subgen == NULL)
                    goto fail;
                g->sub = subgen;
                g->state = g->ip_cont;
                value = Py_None;
                break;
            }
        }

        case GS_IP_FORWARD: {
            PyObject *ip = gdr(dev, PPK_ip), *r;
            if (ip == NULL)
                goto fail;
            r = pp_meth1(ip, PPK__dispatch, g->packet);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            g->state = g->ip_cont;
            break;
        }

        /* ---- HighIplDriver._service_handler ----------------------- */

        case GS_HI_HEAD: {
            PyObject *rxl = gdr(drv, PPK_rx_line);
            PyObject *txl = gdr(drv, PPK_tx_line), *ctr;
            if (rxl == NULL || txl == NULL)
                goto fail;
            if (sd(rxl, PPK_requested, Py_False) < 0 ||
                sd(txl, PPK_requested, Py_False) < 0)
                goto fail;
            ctr = gdr(drv, PPK_service_rounds);
            if (ctr == NULL || counter_inc(ctr, 1) < 0)
                goto fail;
            ppgen_drain(g,
                        DR_COUNT | DR_LIVE | (g->batch_pull ? DR_BATCH : 0),
                        0, g->c1, GS_HI_POST);
            break;
        }

        case GS_HI_POST: {
            PyObject *trace = gdr(drv, PPK_trace);
            if (trace == NULL)
                goto fail;
            if (trace != Py_None && g->dr_handled > 0) {
                long long pending;
                if (pp_rx_pending(drv, &pending) < 0 ||
                    (pending > 0 &&
                     pp_record_exhaust(trace, drv, g->dr_handled,
                                       pending) < 0))
                    goto fail;
            }
            if (ppgen_tx_service(g, gdr(drv, PPK_quota), GS_HI_AFTER) < 0)
                goto fail;
            break;
        }

        case GS_HI_AFTER:
            if (g->dr_handled == 0 && g->moved == 0)
                goto finish;
            g->state = GS_HI_HEAD;
            break;

        /* ---- Polled and hybrid stubs ------------------------------ */

        case GS_STUB_RESUME: {
            int rc;
            if (sd(p->line, PPK_enabled, Py_False) < 0)
                goto fail;            /* line.disable() */
            if (sd(drv, g->flag, Py_True) < 0)
                goto fail;
            if (p->kind == PPIRQ_POLLED_RX || p->kind == PPIRQ_POLLED_TX) {
                /* self.polling.wake() */
                PyObject *polling = gdr(drv, PPK_polling);
                rc = polling == NULL
                         ? -1
                         : pp_kick(polling, PPK__wake_pending, PPK_wakeups,
                                   p->sim);
            } else {
                /* self._schedule() */
                rc = pp_kick(drv, PPK__scheduled, PPK_napi_schedules, p->sim);
            }
            if (rc < 0)
                goto fail;
            goto finish;
        }

        /* ---- Kernel._clock_handler -------------------------------- */

        case GS_CLOCK_BODY: {
            /* drv is the Kernel. ticks += 1; run on_tick hooks; pop
             * the due callouts (self.ticks re-read per use, like the
             * Python body). */
            PyObject *hooks, *ct, *due, *tobj;
            long long t;
            Py_ssize_t i;
            if (gll(drv, PPK_ticks, &t) < 0 ||
                sll(drv, PPK_ticks, t + 1) < 0)
                goto fail;
            hooks = gdr(drv, PPK_on_tick);
            if (hooks == NULL)
                goto fail;
            if (!PyList_Check(hooks)) {
                PyErr_SetString(PyExc_TypeError,
                                "packetpath: on_tick must be a list");
                goto fail;
            }
            for (i = 0; i < PyList_GET_SIZE(hooks); i++) {
                PyObject *hook = PyList_GET_ITEM(hooks, i);
                PyObject *r;
                long long now_t;
                Py_INCREF(hook);
                if (gll(drv, PPK_ticks, &now_t) < 0) {
                    Py_DECREF(hook);
                    goto fail;
                }
                tobj = PyLong_FromLongLong(now_t);
                if (tobj == NULL) {
                    Py_DECREF(hook);
                    goto fail;
                }
                r = PyObject_CallOneArg(hook, tobj);
                Py_DECREF(tobj);
                Py_DECREF(hook);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
            }
            ct = gdr(drv, PPK_callout_table);
            if (ct == NULL)
                goto fail;
            if (gll(drv, PPK_ticks, &t) < 0)
                goto fail;
            tobj = PyLong_FromLongLong(t);
            if (tobj == NULL)
                goto fail;
            due = pp_meth1(ct, PPK_due, tobj);
            Py_DECREF(tobj);
            if (due == NULL)
                goto fail;
            if (!PyList_Check(due)) {
                Py_DECREF(due);
                PyErr_SetString(PyExc_TypeError,
                                "packetpath: due() must return a list");
                goto fail;
            }
            Py_XSETREF(g->batch, due);
            g->handled = 0;          /* index into the due list */
            g->state = GS_CLOCK_CALLOUTS;
            break;
        }

        case GS_CLOCK_CALLOUTS:
            if (g->batch == NULL ||
                g->handled >= PyList_GET_SIZE(g->batch)) {
                PyObject *r;
                Py_CLEAR(g->batch);
                /* self._rotate_quantum() runs as Python: it walks every
                 * core and acts once per quantum, not per packet. */
                r = pp_meth0(drv, PPK__rotate_quantum);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
                goto finish;
            }
            return ppgen_yield(g, g->c2, GS_CLOCK_RUN, pres);

        case GS_CLOCK_RUN: {
            PyObject *callout, *fn, *r, *ct;
            long long ex;
            if (g->batch == NULL ||
                g->handled >= PyList_GET_SIZE(g->batch)) {
                PyErr_SetString(PyExc_SystemError,
                                "packetpath: callout batch lost");
                goto fail;
            }
            callout = PyList_GET_ITEM(g->batch, g->handled);
            Py_INCREF(callout);
            fn = PyObject_GetAttr(callout, pp_keys[PPK_func]);
            Py_DECREF(callout);
            if (fn == NULL)
                goto fail;
            r = PyObject_CallNoArgs(fn);
            Py_DECREF(fn);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            ct = gdr(drv, PPK_callout_table);
            if (ct == NULL || gll(ct, PPK_executed, &ex) < 0 ||
                sll(ct, PPK_executed, ex + 1) < 0)
                goto fail;
            g->handled += 1;
            g->state = GS_CLOCK_CALLOUTS;
            break;
        }

        /* ---- PollingSystem._body (drv is the polling system) ------ */

        case GS_POLL_PASS: {
            PyObject *costs = gdr(drv, PPK_costs);
            long long c;
            if (costs == NULL || gll(costs, PPK_poll_loop_overhead, &c) < 0)
                goto fail;
            return ppgen_yield(g, c, GS_POLL_LIMIT, pres);
        }

        case GS_POLL_LIMIT: {
            PyObject *lim = gdr(drv, PPK_cycle_limiter);
            if (lim == NULL)
                goto fail;
            if (lim != Py_None) {
                PyObject *costs = gdr(drv, PPK_costs);
                long long c;
                if (costs == NULL ||
                    gll(costs, PPK_cycle_accounting, &c) < 0)
                    goto fail;
                return ppgen_yield(g, c, GS_POLL_ROUND, pres);
            }
            g->state = GS_POLL_ROUND;
            break;
        }

        case GS_POLL_ROUND: {
            PyObject *lim = gdr(drv, PPK_cycle_limiter), *ctr, *devices;
            if (lim == NULL)
                goto fail;
            if (lim != Py_None)  /* pass_start = cpu.read_cycle_counter() */
                g->pass_start = pp_ns_to_cycles(p->sim->now_ns, g->c3);
            ctr = gdr(drv, PPK_poll_rounds);
            if (ctr == NULL || counter_inc(ctr, 1) < 0)
                goto fail;
            devices = gdr(drv, PPK_devices);
            if (devices == NULL)
                goto fail;
            g->count = PyObject_Length(devices);
            if (g->count < 0)
                goto fail;
            g->any_work = 0;
            g->offset = 0;
            g->state = GS_POLL_DEV;
            break;
        }

        case GS_POLL_DEV: {
            PyObject *devices, *costs, *driver;
            long long rr, c;
            if (g->offset >= g->count) {
                g->state = GS_POLL_ENDPASS;
                break;
            }
            devices = gdr(drv, PPK_devices);
            if (devices == NULL || gll(drv, PPK__rr_index, &rr) < 0)
                goto fail;
            driver = PySequence_GetItem(devices, (rr + g->offset) % g->count);
            if (driver == NULL)
                goto fail;
            Py_XSETREF(g->dev, driver);
            costs = gdr(drv, PPK_costs);
            if (costs == NULL || gll(costs, PPK_poll_device_check, &c) < 0)
                goto fail;
            return ppgen_yield(g, c, GS_POLL_RX, pres);
        }

        case GS_POLL_RX: {
            /* if self.input_allowed and driver.rx_pending():
             *     driver.rx_callback(self.quota.rx) */
            PyObject *quota, *ctr, *costs;
            long long limit = 0, pending, c;
            int inhibited = pp_truth(drv, PPK__inhibit_reasons), t = 0;
            int bounded;
            if (inhibited < 0)
                goto fail;
            if (!inhibited) {
                t = pp_truth(dev, PPK_rx_service_needed);
                if (t == 0) {
                    if (pp_rx_pending(dev, &pending) < 0)
                        goto fail;
                    t = pending > 0;
                }
                if (t < 0)
                    goto fail;
            }
            if (!t) {
                g->state = GS_POLL_TX;
                break;
            }
            quota = gdr(drv, PPK_quota);
            quota = quota ? PyObject_GetAttr(quota, pp_keys[PPK_rx]) : NULL;
            if (quota == NULL)
                goto fail;
            t = pp_quota(quota, &bounded, &limit);
            Py_DECREF(quota);
            if (t < 0)
                goto fail;
            /* rx_callback's head */
            ctr = gdr(dev, PPK_rx_callback_runs);
            if (ctr == NULL || counter_inc(ctr, 1) < 0 ||
                sd(dev, PPK_rx_service_needed, Py_False) < 0 ||
                (costs = gdr(dev, PPK_costs)) == NULL ||
                gll(costs, PPK_polled_rx_per_packet, &c) < 0)
                goto fail;
            ppgen_drain(g, DR_COUNT | DR_GATE | (bounded ? DR_BOUND : 0),
                        limit, c, GS_POLL_RXDONE);
            break;
        }

        case GS_POLL_RXDONE: {
            /* the tail of rx_callback */
            long long pending;
            if (pp_rx_pending(dev, &pending) < 0)
                goto fail;
            if (pending > 0) {
                PyObject *trace;
                if (sd(dev, PPK_rx_service_needed, Py_True) < 0)
                    goto fail;
                trace = gdr(dev, PPK_trace);
                if (trace == NULL ||
                    (trace != Py_None &&
                     pp_record_exhaust(trace, dev, g->dr_handled,
                                       pending) < 0))
                    goto fail;
            }
            if (g->dr_handled)
                g->any_work = 1;
            g->state = GS_POLL_TX;
            break;
        }

        case GS_POLL_TX: {
            /* if driver.tx_pending(): driver.tx_callback(self.quota.tx) */
            PyObject *quota, *ctr;
            int t = pp_truth(dev, PPK_tx_service_needed);
            if (t == 0)
                t = pp_tx_work(dev);
            if (t < 0)
                goto fail;
            if (!t) {
                g->offset += 1;
                g->state = GS_POLL_DEV;
                break;
            }
            quota = gdr(drv, PPK_quota);
            quota = quota ? PyObject_GetAttr(quota, pp_keys[PPK_tx]) : NULL;
            if (quota == NULL)
                goto fail;
            /* tx_callback's head */
            ctr = gdr(dev, PPK_tx_callback_runs);
            t = ctr == NULL || counter_inc(ctr, 1) < 0 ||
                sd(dev, PPK_tx_service_needed, Py_False) < 0 ||
                ppgen_tx_service(g, quota, GS_POLL_TXDONE) < 0;
            Py_DECREF(quota);
            if (t)
                goto fail;
            break;
        }

        case GS_POLL_TXDONE: {
            /* the tail of tx_callback */
            int t = pp_tx_work(dev);
            if (t < 0 || (t && sd(dev, PPK_tx_service_needed, Py_True) < 0))
                goto fail;
            if (g->moved)
                g->any_work = 1;
            g->offset += 1;
            g->state = GS_POLL_DEV;
            break;
        }

        case GS_POLL_ENDPASS: {
            PyObject *lim;
            long long rr;
            if (gll(drv, PPK__rr_index, &rr) < 0 ||
                sll(drv, PPK__rr_index,
                    (rr + 1) % (g->count > 1 ? g->count : 1)) < 0)
                goto fail;
            lim = gdr(drv, PPK_cycle_limiter);
            if (lim == NULL)
                goto fail;
            if (lim != Py_None) {
                PyObject *costs = gdr(drv, PPK_costs);
                long long c;
                if (costs == NULL ||
                    gll(costs, PPK_cycle_accounting, &c) < 0)
                    goto fail;
                return ppgen_yield(g, c, GS_POLL_CHARGE, pres);
            }
            g->state = GS_POLL_IDLE;
            break;
        }

        case GS_POLL_CHARGE: {
            PyObject *lim = gdr(drv, PPK_cycle_limiter);
            if (lim == NULL ||
                pp_limiter_charge(
                    lim, pp_ns_to_cycles(p->sim->now_ns, g->c3) -
                             g->pass_start) < 0)
                goto fail;
            g->state = GS_POLL_IDLE;
            break;
        }

        case GS_POLL_IDLE: {
            /* No work pending anywhere: re-enable interrupts
             * (PolledDriver.enable_interrupts), then sleep. */
            PyObject *devices;
            Py_ssize_t i;
            int t;
            if (g->any_work) {
                g->state = GS_POLL_PASS;
                break;
            }
            devices = gdr(drv, PPK_devices);
            if (devices == NULL || !PyList_Check(devices)) {
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_TypeError,
                                    "packetpath: devices must be a list");
                goto fail;
            }
            Py_INCREF(devices);
            for (i = 0; i < PyList_GET_SIZE(devices); i++) {
                /* driver.enable_interrupts(rx_allowed=self.input_allowed) */
                PyObject *d = PyList_GET_ITEM(devices, i), *line, *nic;
                long long n;
                int rc = -1;
                Py_INCREF(d);
                t = pp_truth(drv, PPK__inhibit_reasons);
                if (t == 0) {
                    line = gdr(d, PPK_rx_line);
                    if (line != NULL && pp_line_enable(line) == 0 &&
                        pp_rx_pending(d, &n) == 0 &&
                        pp_request_if(line, n) == 0)
                        rc = 0;
                }
                else if (t > 0)
                    rc = 0;
                if (rc == 0) {
                    line = gdr(d, PPK_tx_line);
                    nic = gdr(d, PPK_nic);
                    if (line == NULL || nic == NULL ||
                        pp_line_enable(line) < 0 ||
                        gll(nic, PPK__tx_done, &n) < 0 ||
                        pp_request_if(line, n) < 0)
                        rc = -1;
                }
                Py_DECREF(d);
                if (rc < 0) {
                    Py_DECREF(devices);
                    goto fail;
                }
            }
            Py_DECREF(devices);
            t = pp_truth(drv, PPK__wake_pending);
            if (t < 0)
                goto fail;
            if (t) {
                if (sd(drv, PPK__wake_pending, Py_False) < 0)
                    goto fail;
                g->state = GS_POLL_PASS;
                break;
            }
            return ppgen_wait(g, GS_POLL_WOKE, pres);
        }

        case GS_POLL_WOKE:
            if (sd(drv, PPK__wake_pending, Py_False) < 0)
                goto fail;
            g->state = GS_POLL_PASS;
            break;

        /* ---- HybridDriver._napi_body ------------------------------ */

        case GS_NAPI_TOP: {
            int t = pp_truth(drv, PPK__scheduled);
            if (t < 0)
                goto fail;
            if (!t)
                return ppgen_wait(g, GS_NAPI_WOKE, pres);
            g->state = GS_NAPI_WOKE;
            break;
        }

        case GS_NAPI_WOKE: {
            long long delay;
            if (sd(drv, PPK__scheduled, Py_False) < 0 ||
                gll(drv, PPK_coalesce_ns, &delay) < 0)
                goto fail;
            g->handled = 0;           /* drained */
            if (delay > 0)
                /* Hold off the drain so further arrivals share it. */
                return ppgen_sleep(g, delay, GS_NAPI_PASS, pres);
            g->state = GS_NAPI_PASS;
            break;
        }

        case GS_NAPI_PASS: {
            PyObject *ctr = gdr(drv, PPK_napi_polls);
            if (ctr == NULL || counter_inc(ctr, 1) < 0)
                goto fail;
            return ppgen_yield(g, g->c1, GS_NAPI_RX, pres);
        }

        case GS_NAPI_RX:
            if (sd(drv, PPK_rx_service_needed, Py_False) < 0)
                goto fail;
            ppgen_drain(g, DR_COUNT | (g->bounded ? DR_BOUND : 0), g->quota,
                        g->c2, GS_NAPI_RXDONE);
            break;

        case GS_NAPI_RXDONE: {
            long long pending;
            PyObject *quota;
            int rc;
            if (g->dr_handled) {
                if (pp_rx_pending(drv, &pending) < 0)
                    goto fail;
                if (pending > 0) {
                    PyObject *trace = gdr(drv, PPK_trace);
                    if (trace == NULL)
                        goto fail;
                    if (trace != Py_None &&
                        (pp_rx_pending(drv, &pending) < 0 ||
                         pp_record_exhaust(trace, drv, g->dr_handled,
                                           pending) < 0))
                        goto fail;
                }
            }
            if (sd(drv, PPK_tx_service_needed, Py_False) < 0)
                goto fail;
            quota = g->bounded ? PyLong_FromLongLong(g->quota) : Py_None;
            if (quota == NULL)
                goto fail;
            rc = ppgen_tx_service(g, quota, GS_NAPI_TXDONE);
            if (g->bounded)
                Py_DECREF(quota);
            if (rc < 0)
                goto fail;
            break;
        }

        case GS_NAPI_TXDONE: {
            /* drained += handled; self._adapt(drained, handled) */
            long long limit, cur, handled = g->dr_handled, q;
            long long pending;
            int more;
            g->handled += handled;
            if (gll(drv, PPK_coalesce_max_ns, &limit) < 0)
                goto fail;
            if (limit != 0) {
                int bounded;
                if (pp_quota(gdr(drv, PPK_quota), &bounded, &q) < 0 ||
                    gll(drv, PPK_coalesce_ns, &cur) < 0)
                    goto fail;
                if (!bounded)
                    q = 16;
                if (handled < q / 2 && cur) {
                    long long shrunk = cur / 2;
                    PyObject *ctr;
                    if (shrunk < pps.min_coalesce_ns)
                        shrunk = 0;
                    ctr = gdr(drv, PPK_coalesce_decays);
                    if (sll(drv, PPK_coalesce_ns, shrunk) < 0 ||
                        ctr == NULL || counter_inc(ctr, 1) < 0)
                        goto fail;
                } else if (g->handled >= q * 2) {
                    long long grown = cur ? cur * 2 : pps.min_coalesce_ns;
                    if (grown > limit)
                        grown = limit;
                    if (grown != cur) {
                        PyObject *ctr = gdr(drv, PPK_coalesce_grows);
                        if (sll(drv, PPK_coalesce_ns, grown) < 0 ||
                            ctr == NULL || counter_inc(ctr, 1) < 0)
                            goto fail;
                    }
                }
            }
            if (pp_rx_pending(drv, &pending) < 0)
                goto fail;
            more = pending > 0 ? 1 : pp_tx_work(drv);
            if (more < 0)
                goto fail;
            if (more) {
                g->state = GS_NAPI_PASS;
                break;
            }
            /* Work complete: re-arm the interrupt lines (NAPI
             * "complete"). */
            {
                PyObject *rxl = gdr(drv, PPK_rx_line);
                PyObject *txl = gdr(drv, PPK_tx_line);
                PyObject *nic = gdr(drv, PPK_nic);
                long long done;
                if (rxl == NULL || txl == NULL || nic == NULL ||
                    pp_line_enable(rxl) < 0 ||
                    pp_rx_pending(drv, &pending) < 0 ||
                    pp_request_if(rxl, pending) < 0 ||
                    pp_line_enable(txl) < 0 ||
                    gll(nic, PPK__tx_done, &done) < 0 ||
                    pp_request_if(txl, done) < 0)
                    goto fail;
            }
            g->state = GS_NAPI_TOP;
            break;
        }

        /* ---- ClockedPollingDriver._poll_body ---------------------- */

        case GS_CLK_TOP: {
            int t = pp_truth(drv, PPK__interval_dirty);
            if (t < 0)
                goto fail;
            if (t && (sd(drv, PPK__interval_dirty, Py_False) < 0 ||
                      gll(drv, PPK_poll_interval_ns, &g->c3) < 0))
                goto fail;
            return ppgen_sleep(g, g->c3, GS_CLK_POLL, pres);
        }

        case GS_CLK_POLL: {
            /* Fixed cost of waking up and inspecting the device, paid
             * on every period whether or not anything arrived. */
            PyObject *ctr = gdr(drv, PPK_polls);
            if (ctr == NULL || counter_inc(ctr, 1) < 0)
                goto fail;
            return ppgen_yield(g, g->c1, GS_CLK_RX, pres);
        }

        case GS_CLK_RX:
            ppgen_drain(g,
                        DR_COUNT | DR_LIVE | (g->batch_pull ? DR_BATCH : 0),
                        0, g->c2, GS_CLK_RXDONE);
            break;

        case GS_CLK_RXDONE: {
            PyObject *trace = gdr(drv, PPK_trace);
            if (trace == NULL)
                goto fail;
            if (trace != Py_None && g->dr_handled) {
                long long pending;
                if (pp_rx_pending(drv, &pending) < 0 ||
                    (pending > 0 &&
                     pp_record_exhaust(trace, drv, g->dr_handled,
                                       pending) < 0))
                    goto fail;
            }
            if (ppgen_tx_service(g, gdr(drv, PPK_quota), GS_CLK_TXDONE) < 0)
                goto fail;
            break;
        }

        case GS_CLK_TXDONE:
            if (!g->dr_handled && !g->moved) {
                PyObject *ctr = gdr(drv, PPK_idle_polls);
                if (ctr == NULL || counter_inc(ctr, 1) < 0)
                    goto fail;
            }
            g->state = GS_CLK_TOP;
            break;

        /* ---- ClassicIPInput._netisr_body -------------------------- */

        case GS_NETISR_DRAIN:
            ppgen_drain(g, DR_IPINTRQ, 0, g->c1, GS_NETISR_WAIT);
            break;

        case GS_NETISR_WAIT:
            return ppgen_wait(g, GS_NETISR_DRAIN, pres);

        /* ---- Kernel._idle_body ------------------------------------ */

        case GS_IDLE_LOOP:
            if (g->hooks) {
                PyObject *hooks = gdr(drv, PPK_on_idle);
                Py_ssize_t i;
                if (hooks == NULL)
                    goto fail;
                if (!PyList_Check(hooks)) {
                    PyErr_SetString(PyExc_TypeError,
                                    "packetpath: on_idle must be a list");
                    goto fail;
                }
                Py_INCREF(hooks);
                for (i = 0; i < PyList_GET_SIZE(hooks); i++) {
                    PyObject *hook = PyList_GET_ITEM(hooks, i), *r;
                    Py_INCREF(hook);
                    r = PyObject_CallNoArgs(hook);
                    Py_DECREF(hook);
                    if (r == NULL) {
                        Py_DECREF(hooks);
                        goto fail;
                    }
                    Py_DECREF(r);
                }
                Py_DECREF(hooks);
            }
            return ppgen_yield(g, g->c1, GS_IDLE_LOOP, pres);

        default:
            PyErr_SetString(PyExc_SystemError,
                            "packetpath: corrupt PPGen state");
            goto fail;
        }
    }
finish:
    g->closed = 1;
    Py_INCREF(Py_None);
    *pres = Py_None;
    return PYGEN_RETURN;
fail:
    g->closed = 1;
    *pres = NULL;
    return PYGEN_ERROR;
}

/* Python-visible generator protocol (Process.kill -> _body.close(),
 * and any stray .send after teardown). */
static PyObject *
ppgen_py_send(PPGenObject *g, PyObject *value)
{
    PyObject *res = NULL;
    PySendResult sr = ppgen_send(g, value, &res);
    if (sr == PYGEN_NEXT)
        return res;
    if (sr == PYGEN_RETURN) {
        Py_XDECREF(res);
        PyErr_SetNone(PyExc_StopIteration);
    }
    return NULL;
}

static PyObject *
ppgen_py_close(PPGenObject *g, PyObject *noarg)
{
    (void)noarg;
    g->closed = 1;
    if (g->sub != NULL) {
        PyObject *sub = g->sub;
        PyObject *r;
        g->sub = NULL;
        r = PyObject_CallMethod(sub, "close", NULL);
        Py_DECREF(sub);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    Py_RETURN_NONE;
}

static PyMethodDef ppgen_methods[] = {
    {"send", (PyCFunction)ppgen_py_send, METH_O, NULL},
    {"close", (PyCFunction)ppgen_py_close, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PPGen_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastcore._corec._PPGen",
    .tp_basicsize = sizeof(PPGenObject),
    .tp_dealloc = (destructor)ppgen_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)ppgen_traverse,
    .tp_clear = (inquiry)ppgen_clear,
    .tp_methods = ppgen_methods,
};

static PyObject *
ppgen_new(PPIrq *proto)
{
    PPGenObject *g;
    PyObject *zero, *work;
    zero = PyLong_FromLong(0);
    if (zero == NULL)
        return NULL;
    work = PyObject_CallOneArg(pps.Work, zero);
    Py_DECREF(zero);
    if (work == NULL)
        return NULL;
    g = PyObject_GC_New(PPGenObject, &PPGen_Type);
    if (g == NULL) {
        Py_DECREF(work);
        return NULL;
    }
    Py_INCREF(proto);
    g->proto = proto;
    Py_INCREF(proto->owner);
    g->dev = proto->owner;
    g->sub = NULL;
    g->packet = NULL;
    g->batch = NULL;
    g->work = work;
    g->wait = NULL;
    g->sleep = NULL;
    g->c1 = g->c2 = g->c3 = 0;
    g->handled = g->moved = g->tsq = 0;
    g->dr_limit = g->dr_handled = g->dr_cycles = 0;
    g->pass_start = g->offset = g->count = g->quota = 0;
    /* A handler starts with the dispatch prelude, a thread at once. */
    g->state = proto->line != NULL ? GS_PRELUDE : GS_START;
    g->ip_cont = g->ts_ret = g->dr_ret = GS_RETURN;
    g->dr_flags = 0;
    g->tsq_none = g->batch_pull = g->bounded = g->any_work = 0;
    g->hooks = g->flag = 0;
    g->closed = 0;
    PyObject_GC_Track(g);
    return (PyObject *)g;
}

/* ---- PPIrq proto ---------------------------------------------------- */

static int
ppirq_traverse(PPIrq *p, visitproc visit, void *arg)
{
    Py_VISIT(p->line);
    Py_VISIT(p->owner);
    Py_VISIT(p->cpu);
    Py_VISIT(p->sim);
    Py_VISIT(p->name);
    Py_VISIT(p->work_label);
    Py_VISIT(p->key);
    Py_VISIT(p->done_cb);
    return 0;
}

static int
ppirq_clear(PPIrq *p)
{
    Py_CLEAR(p->line);
    Py_CLEAR(p->owner);
    Py_CLEAR(p->cpu);
    Py_CLEAR(p->sim);
    Py_CLEAR(p->name);
    Py_CLEAR(p->work_label);
    Py_CLEAR(p->key);
    Py_CLEAR(p->done_cb);
    return 0;
}

static void
ppirq_dealloc(PPIrq *p)
{
    PyObject_GC_UnTrack(p);
    ppirq_clear(p);
    PyObject_GC_Del(p);
}

static PyTypeObject PPIrq_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastcore._corec._PPIrq",
    .tp_basicsize = sizeof(PPIrq),
    .tp_dealloc = (destructor)ppirq_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)ppirq_traverse,
    .tp_clear = (inquiry)ppirq_clear,
};

/* ---- kernel-thread body factories -----------------------------------
 *
 * packetpath.install shadows each owner's body factory with one of
 * these (``polling._body``, ``driver._napi_body``, ...): calling it
 * returns a PPGen for a thread proto, which the spawned task runs from
 * its first resume. */

static PyObject *
pp_thread_body(PPCtx *ctx, int kind, int hooks)
{
    PPIrq *p = PyObject_GC_New(PPIrq, &PPIrq_Type);
    PyObject *g;
    if (p == NULL)
        return NULL;
    p->kind = kind;
    p->ipl = 0;
    p->line = p->cpu = p->name = p->work_label = p->key = p->done_cb = NULL;
    Py_INCREF(ctx->owner);
    p->owner = ctx->owner;
    Py_INCREF(ctx->sim);
    p->sim = ctx->sim;
    PyObject_GC_Track(p);
    g = ppgen_new(p);
    Py_DECREF(p);
    if (g != NULL)
        ((PPGenObject *)g)->hooks = hooks;
    return g;
}

static PyObject *
ppf_body_poll(PyObject *self, PyObject *noarg)
{
    return pp_thread_body((PPCtx *)self, PPT_POLL, 0);
}

static PyObject *
ppf_body_napi(PyObject *self, PyObject *noarg)
{
    return pp_thread_body((PPCtx *)self, PPT_NAPI, 0);
}

static PyObject *
ppf_body_clocked(PyObject *self, PyObject *noarg)
{
    return pp_thread_body((PPCtx *)self, PPT_CLOCKED, 0);
}

static PyObject *
ppf_body_netisr(PyObject *self, PyObject *noarg)
{
    return pp_thread_body((PPCtx *)self, PPT_NETISR, 0);
}

/* Kernel._idle_body(run_hooks=True) */
static PyObject *
ppf_body_idle(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    Py_ssize_t nkw = kwnames != NULL ? PyTuple_GET_SIZE(kwnames) : 0;
    int run_hooks = 1;
    if (nargs + nkw > 1 ||
        (nkw == 1 && PyUnicode_CompareWithASCIIString(
                         PyTuple_GET_ITEM(kwnames, 0), "run_hooks") != 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "_idle_body() takes one argument, run_hooks");
        return NULL;
    }
    if (nargs + nkw == 1) {
        run_hooks = PyObject_IsTrue(args[0]);
        if (run_hooks < 0)
            return NULL;
    }
    return pp_thread_body((PPCtx *)self, PPT_IDLE, run_hooks);
}

static PyMethodDef def_body_poll = {
    "_body", (PyCFunction)ppf_body_poll, METH_NOARGS, NULL};
static PyMethodDef def_body_napi = {
    "_napi_body", (PyCFunction)ppf_body_napi, METH_NOARGS, NULL};
static PyMethodDef def_body_clocked = {
    "_poll_body", (PyCFunction)ppf_body_clocked, METH_NOARGS, NULL};
static PyMethodDef def_body_netisr = {
    "_netisr_body", (PyCFunction)ppf_body_netisr, METH_NOARGS, NULL};
static PyMethodDef def_body_idle = {
    "_idle_body", (PyCFunction)(void (*)(void))ppf_body_idle,
    METH_FASTCALL | METH_KEYWORDS, NULL};

/* ---- exit callback: InterruptController._handler_done --------------- */

static PyObject *
ppf_irq_done(PyObject *self, PyObject *proc)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *line = ctx->owner;
    PyObject *trace, *controller, *cpu, *cur, *td, *oc, *r, *iplobj;
    long long eff = 0;
    (void)proc;
    controller = gdr(line, PPK_controller);
    if (controller == NULL)
        return NULL;
    if (sd(line, PPK_in_service, Py_False) < 0)
        return NULL;
    trace = gdr(line, PPK_trace);
    if (trace == NULL ||
        (trace != Py_None &&
         pp_trace(trace, PPK_record, 2, pps.kinds[TK_IRQ_RETURN],
                  gdr(line, PPK_name)) < 0))
        return NULL;
    td = PyObject_GetAttr(controller, pp_keys[PPK_try_deliver]);
    if (td == NULL)
        return NULL;
    r = PyObject_CallOneArg(td, line);
    Py_DECREF(td);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    /* _on_ipl_change(cpu.current_ipl) — read *after* try_deliver, which
     * may have started a task and changed the current IPL. */
    cpu = gdr(controller, PPK_cpu);
    if (cpu == NULL)
        return NULL;
    cur = gdr(cpu, PPK__current);
    if (cur == NULL)
        return NULL;
    if (cur != Py_None && gll(cur, PPK__eff_ipl, &eff) < 0)
        return NULL;
    oc = PyObject_GetAttr(controller, pp_keys[PPK__on_ipl_change]);
    if (oc == NULL)
        return NULL;
    iplobj = PyLong_FromLongLong(eff);
    if (iplobj == NULL) {
        Py_DECREF(oc);
        return NULL;
    }
    r = PyObject_CallOneArg(oc, iplobj);
    Py_DECREF(oc);
    Py_DECREF(iplobj);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    Py_RETURN_NONE;
}

static PyMethodDef def_irq_done = {
    "_pp_irq_done", (PyCFunction)ppf_irq_done, METH_O, NULL};

/* ---- InterruptController.try_deliver -------------------------------- */

static PyObject *
ppf_ctrl_try_deliver(PyObject *self, PyObject *line)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *controller = ctx->owner;
    PyObject *trace, *protoobj, *flag, *cur;
    PyObject *gen = NULL, *task = NULL, *cbs = NULL, *fn = NULL, *res;
    PPIrq *p;
    PPCtx *dctx;
    PyTypeObject *tt;
    long long eff = 0, dc;
    int t;
    protoobj = gd(line, PPK__pp_irq);
    if (protoobj == NULL && PyErr_Occurred())
        return NULL;
    if (protoobj == NULL || Py_TYPE(protoobj) != &PPIrq_Type)
        /* A line without a ported handler (softnet, hybrid, custom):
         * the Python method handles it, and any task it creates still
         * gets a compiled deliver via the wrapped cpu.task. */
        return PyObject_CallFunctionObjArgs(pps.ctrl_try_deliver,
                                            controller, line, NULL);
    p = (PPIrq *)protoobj;
    flag = gdr(line, PPK_requested);
    if (flag == NULL)
        return NULL;
    t = PyObject_IsTrue(flag);
    if (t < 0)
        return NULL;
    if (t) {
        flag = gdr(line, PPK_enabled);
        if (flag == NULL)
            return NULL;
        t = PyObject_IsTrue(flag);
        if (t < 0)
            return NULL;
    }
    if (t) {
        flag = gdr(line, PPK_in_service);
        if (flag == NULL)
            return NULL;
        t = PyObject_IsTrue(flag);
        if (t < 0)
            return NULL;
        t = !t;
    }
    if (!t)
        Py_RETURN_FALSE;
    cur = gdr(p->cpu, PPK__current);
    if (cur == NULL)
        return NULL;
    if (cur != Py_None && gll(cur, PPK__eff_ipl, &eff) < 0)
        return NULL;
    if (p->ipl <= eff)
        Py_RETURN_FALSE;
    if (sd(line, PPK_requested, Py_False) < 0 ||
        sd(line, PPK_in_service, Py_True) < 0)
        return NULL;
    if (gll(line, PPK_dispatch_count, &dc) < 0 ||
        sll(line, PPK_dispatch_count, dc + 1) < 0)
        return NULL;
    trace = gdr(line, PPK_trace);
    if (trace == NULL)
        return NULL;
    if (trace != Py_None) {
        PyObject *name = gdr(line, PPK_name);
        if (name == NULL ||
            pp_trace(trace, PPK_record, 3, pps.kinds[TK_IRQ_DISPATCH], name,
                     gdr(line, PPK_ipl)) < 0)
            return NULL;
    }
    /* Build the handler CpuTask: same attributes CpuTask.__init__ would
     * set. */
    gen = ppgen_new(p);
    if (gen == NULL)
        return NULL;
    tt = (PyTypeObject *)pps.CpuTask;
    task = tt->tp_new(tt, pps.empty_tuple, NULL);
    if (task == NULL)
        goto err;
    cbs = PyList_New(1);
    if (cbs == NULL)
        goto err;
    Py_INCREF(p->done_cb);
    PyList_SET_ITEM(cbs, 0, p->done_cb);   /* task.on_exit(handler_done) */
    if (sd(task, PPK_sim, (PyObject *)p->sim) < 0 ||
        sd(task, PPK_name, p->name) < 0 ||
        sd(task, PPK_state, pps.st_new) < 0 ||
        sd(task, PPK__body, gen) < 0 ||
        sd(task, PPK__waiting_on, Py_None) < 0 ||
        sd(task, PPK__exit_callbacks, cbs) < 0 ||
        sd(task, PPK_exception, Py_None) < 0 ||
        sd(task, PPK_cpu, p->cpu) < 0 ||
        sll(task, PPK_base_ipl, p->ipl) < 0 ||
        sll(task, PPK_spl_level, 0) < 0 ||
        sll(task, PPK_priority_class, 1) < 0 ||      /* CLASS_USER */
        sll(task, PPK_cycles_used, 0) < 0 ||
        sll(task, PPK__ready_seq, 0) < 0 ||
        sll(task, PPK__eff_ipl, p->ipl) < 0 ||
        sd(task, PPK__key, p->key) < 0 ||
        sd(task, PPK__work_label, p->work_label) < 0)
        goto err;
    /* Bind the compiled deliver and start the task (NEW -> ALIVE
     * happens inside pp_deliver_impl, same as Process.start). */
    dctx = ppctx_new(task, p->sim);
    if (dctx == NULL)
        goto err;
    fn = PyCFunction_New(&def_task_deliver, (PyObject *)dctx);
    if (fn == NULL) {
        Py_DECREF(dctx);
        goto err;
    }
    if (sd(task, PPK_deliver, fn) < 0) {
        Py_DECREF(fn);
        Py_DECREF(dctx);
        goto err;
    }
    Py_DECREF(fn);
    res = pp_deliver_impl(dctx, Py_None);
    Py_DECREF(dctx);
    if (res == NULL)
        goto err;
    Py_DECREF(res);
    Py_DECREF(cbs);
    Py_DECREF(task);
    Py_DECREF(gen);
    Py_RETURN_TRUE;
err:
    Py_XDECREF(cbs);
    Py_XDECREF(task);
    Py_XDECREF(gen);
    return NULL;
}

static PyMethodDef def_ctrl_try_deliver = {
    "try_deliver", (PyCFunction)ppf_ctrl_try_deliver, METH_O, NULL};

/* ---- InterruptController._on_ipl_change ----------------------------- */

static PyObject *
ppf_ctrl_on_ipl_change(PyObject *self, PyObject *iplobj)
{
    PPCtx *ctx = (PPCtx *)self;
    PyObject *controller = ctx->owner;
    PyObject *lines, *td = NULL;
    long long ipl;
    Py_ssize_t i;
    ipl = PyLong_AsLongLong(iplobj);
    if (ipl == -1 && PyErr_Occurred())
        return NULL;
    lines = gdr(controller, PPK_lines);
    if (lines == NULL)
        return NULL;
    if (!PyList_Check(lines)) {
        PyErr_SetString(PyExc_TypeError, "packetpath: lines must be a list");
        return NULL;
    }
    Py_INCREF(lines);
    /* Re-check the size every iteration, mirroring the Python list
     * iterator (lines are only appended at setup, but stay exact). */
    for (i = 0; i < PyList_GET_SIZE(lines); i++) {
        PyObject *line = PyList_GET_ITEM(lines, i);
        PyObject *flag, *r;
        long long lipl;
        int t;
        Py_INCREF(line);
        if (gll(line, PPK_ipl, &lipl) < 0)
            goto err;
        if (lipl <= ipl) {
            Py_DECREF(line);
            continue;
        }
        flag = gdr(line, PPK_requested);
        if (flag == NULL)
            goto err;
        t = PyObject_IsTrue(flag);
        if (t < 0)
            goto err;
        if (t) {
            flag = gdr(line, PPK_enabled);
            if (flag == NULL)
                goto err;
            t = PyObject_IsTrue(flag);
            if (t < 0)
                goto err;
        }
        if (t) {
            flag = gdr(line, PPK_in_service);
            if (flag == NULL)
                goto err;
            t = PyObject_IsTrue(flag);
            if (t < 0)
                goto err;
            t = !t;
        }
        if (t) {
            if (td == NULL) {
                td = PyObject_GetAttr(controller, pp_keys[PPK_try_deliver]);
                if (td == NULL)
                    goto err;
            }
            r = PyObject_CallOneArg(td, line);
            if (r == NULL)
                goto err;
            Py_DECREF(r);
        }
        Py_DECREF(line);
        continue;
    err:
        Py_DECREF(line);
        Py_XDECREF(td);
        Py_DECREF(lines);
        return NULL;
    }
    Py_XDECREF(td);
    Py_DECREF(lines);
    Py_RETURN_NONE;
}

static PyMethodDef def_ctrl_on_ipl_change = {
    "_on_ipl_change", (PyCFunction)ppf_ctrl_on_ipl_change, METH_O, NULL};

/* ---- proto factory: _corec.pp_irq_proto(kind, line, owner, sim) ----- */

static PyObject *
corec_pp_irq_proto(PyObject *mod, PyObject *args)
{
    const char *kind;
    PyObject *line, *owner, *sim, *controller, *cpu, *lname;
    PPIrq *p;
    PPCtx *dctx;
    int k;
    long long ipl;
    (void)mod;
    if (!PyArg_ParseTuple(args, "sOOO:pp_irq_proto", &kind, &line, &owner,
                          &sim))
        return NULL;
    if (Py_TYPE(sim) != &FastCore_Type) {
        PyErr_SetString(PyExc_TypeError,
                        "pp_irq_proto requires a FastCore simulator");
        return NULL;
    }
    if (!pps.ready && pp_init_symbols() < 0)
        return NULL;
    if (strcmp(kind, "bsd_rx") == 0)
        k = PPIRQ_BSD_RX;
    else if (strcmp(kind, "bsd_tx") == 0)
        k = PPIRQ_BSD_TX;
    else if (strcmp(kind, "highipl") == 0)
        k = PPIRQ_HIGHIPL;
    else if (strcmp(kind, "polled_rx") == 0)
        k = PPIRQ_POLLED_RX;
    else if (strcmp(kind, "polled_tx") == 0)
        k = PPIRQ_POLLED_TX;
    else if (strcmp(kind, "hybrid_rx") == 0)
        k = PPIRQ_HYBRID_RX;
    else if (strcmp(kind, "hybrid_tx") == 0)
        k = PPIRQ_HYBRID_TX;
    else if (strcmp(kind, "softnet") == 0)
        k = PPIRQ_SOFTNET;
    else if (strcmp(kind, "clock") == 0)
        k = PPIRQ_CLOCK;
    else {
        PyErr_Format(PyExc_ValueError, "pp_irq_proto: unknown kind %s",
                     kind);
        return NULL;
    }
    controller = gdr(line, PPK_controller);
    if (controller == NULL)
        return NULL;
    cpu = gdr(controller, PPK_cpu);
    if (cpu == NULL)
        return NULL;
    if (gll(line, PPK_ipl, &ipl) < 0)
        return NULL;
    lname = gdr(line, PPK_name);
    if (lname == NULL)
        return NULL;
    p = PyObject_GC_New(PPIrq, &PPIrq_Type);
    if (p == NULL)
        return NULL;
    p->kind = k;
    p->ipl = ipl;
    Py_INCREF(line);
    p->line = line;
    Py_INCREF(owner);
    p->owner = owner;
    Py_INCREF(cpu);
    p->cpu = cpu;
    Py_INCREF(sim);
    p->sim = (FastCoreObject *)sim;
    p->name = NULL;
    p->work_label = NULL;
    p->key = NULL;
    p->done_cb = NULL;
    PyObject_GC_Track(p);
    p->name = PyUnicode_FromFormat("irq:%U", lname);
    p->work_label = PyUnicode_FromFormat("work:irq:%U", lname);
    p->key = Py_BuildValue("(LLL)", ipl, (long long)1, (long long)0);
    dctx = ppctx_new(line, (FastCoreObject *)sim);
    if (dctx != NULL) {
        p->done_cb = PyCFunction_New(&def_irq_done, (PyObject *)dctx);
        Py_DECREF(dctx);
    }
    if (p->name == NULL || p->work_label == NULL || p->key == NULL ||
        p->done_cb == NULL) {
        Py_DECREF(p);
        return NULL;
    }
    if (sd(line, PPK__pp_irq, (PyObject *)p) < 0) {
        Py_DECREF(p);
        return NULL;
    }
    Py_DECREF(p);
    Py_RETURN_NONE;
}

/* ---- pp_bind: the module-level binding factory ---------------------- */

typedef struct {
    const char *kind;
    PyMethodDef *def;
    const char *attr; /* instance attribute set on owner; NULL = return only */
} PPBindSpec;

static PPBindSpec pp_bind_specs[] = {
    {"cpu.requeue_behind", &def_cpu_requeue, "requeue_behind"},
    {"cpu._complete", &def_cpu_complete, "_complete"},
    {"cpu.task", &def_cpu_task, "task"},
    {"task.deliver", &def_task_deliver, "deliver"},
    {"nic.receive_from_wire", &def_nic_receive, "receive_from_wire"},
    {"nic.rx_pull", &def_nic_rx_pull, "rx_pull"},
    {"nic.rx_pull_many", &def_nic_rx_pull_many, "rx_pull_many"},
    {"nic.rx_pending", &def_nic_rx_pending, "rx_pending"},
    {"nic.tx_done_slots", &def_nic_tx_done, "tx_done_slots"},
    {"nic.tx_enqueue", &def_nic_tx_enqueue, "tx_enqueue"},
    {"nic.tx_reclaim", &def_nic_tx_reclaim, "tx_reclaim"},
    {"nic._transmit_complete", &def_nic_txcomplete, "_transmit_complete"},
    {"queue.enqueue", &def_pq_enqueue, "enqueue"},
    {"queue.dequeue", &def_pq_dequeue, "dequeue"},
    {"ip._dispatch", &def_ip_dispatch, "_dispatch"},
    {"line.request", &def_line_request, "request"},
    {"ctrl.try_deliver", &def_ctrl_try_deliver, "try_deliver"},
    {"ctrl._on_ipl_change", &def_ctrl_on_ipl_change, "_on_ipl_change"},
    {"ipinput.enqueue", &def_ipinput_enqueue, "enqueue"},
    {"driver.output_kick_irq", &def_driver_output_irq, "output"},
    {"driver.output_kick_poll", &def_driver_output_poll, "output"},
    {"driver.output_plain", &def_driver_output_plain, "output"},
    {"router._on_output_transmit", &def_router_out, NULL},
    {"polling._body", &def_body_poll, "_body"},
    {"hybrid._napi_body", &def_body_napi, "_napi_body"},
    {"clocked._poll_body", &def_body_clocked, "_poll_body"},
    {"ipinput._netisr_body", &def_body_netisr, "_netisr_body"},
    {"kernel._idle_body", &def_body_idle, "_idle_body"},
    {"gen.tick_constant", &def_gen_tick_constant, "_tick"},
    {"gen.tick_poisson", &def_gen_tick_poisson, "_tick"},
    {"gen.tick_bursty", &def_gen_tick_bursty, "_tick"},
    {"gen.gap_over", &def_gen_gap_over, "_gap_over"},
    {NULL, NULL, NULL},
};

static PyObject *
corec_pp_bind(PyObject *mod, PyObject *args)
{
    const char *kind;
    PyObject *owner, *sim, *extras = NULL, *fn;
    PPBindSpec *spec;
    PPCtx *ctx;
    (void)mod;
    if (!PyArg_ParseTuple(args, "sOO|O:pp_bind", &kind, &owner, &sim,
                          &extras))
        return NULL;
    if (Py_TYPE(sim) != &FastCore_Type) {
        PyErr_SetString(PyExc_TypeError,
                        "pp_bind requires a FastCore simulator");
        return NULL;
    }
    if (!pps.ready && pp_init_symbols() < 0)
        return NULL;
    for (spec = pp_bind_specs; spec->kind != NULL; spec++) {
        if (strcmp(spec->kind, kind) == 0)
            break;
    }
    if (spec->kind == NULL) {
        PyErr_Format(PyExc_ValueError, "pp_bind: unknown kind %s", kind);
        return NULL;
    }
    ctx = ppctx_new(owner, (FastCoreObject *)sim);
    if (ctx == NULL)
        return NULL;
    if (extras != NULL && extras != Py_None) {
        Py_ssize_t n;
        if (!PyTuple_Check(extras)) {
            Py_DECREF(ctx);
            PyErr_SetString(PyExc_TypeError,
                            "pp_bind extras must be a tuple");
            return NULL;
        }
        n = PyTuple_GET_SIZE(extras);
        if (n >= 1) {
            ctx->a = PyTuple_GET_ITEM(extras, 0);
            Py_INCREF(ctx->a);
        }
        if (n >= 2) {
            ctx->b = PyTuple_GET_ITEM(extras, 1);
            Py_INCREF(ctx->b);
        }
        if (n >= 3) {
            ctx->c = PyTuple_GET_ITEM(extras, 2);
            Py_INCREF(ctx->c);
        }
    }
    fn = PyCFunction_New(spec->def, (PyObject *)ctx);
    Py_DECREF(ctx);
    if (fn == NULL)
        return NULL;
    if (spec->attr != NULL &&
        PyObject_SetAttrString(owner, spec->attr, fn) < 0) {
        Py_DECREF(fn);
        return NULL;
    }
    return fn;
}

static PyMethodDef corec_module_methods[] = {
    {"pp_bind", corec_pp_bind, METH_VARARGS,
     "Bind a compiled packet-path entry point onto a Python object."},
    {"pp_irq_proto", corec_pp_irq_proto, METH_VARARGS,
     "Attach a compiled IRQ-handler proto to an InterruptLine."},
    {"profile_buckets", corec_profile_buckets, METH_O,
     "Enable/disable (and reset) the --profile wall-clock buckets."},
    {"profile_snapshot", corec_profile_snapshot, METH_NOARGS,
     "Read the process-wide compiled-vs-python wall-clock buckets."},
    {NULL, NULL, 0, NULL},
};

static PyMethodDef fastcore_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))fastcore_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule(delay, callback, *args, label=None) -> Event"},
    {"schedule_at", (PyCFunction)(void (*)(void))fastcore_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule_at(time, callback, *args, label=None) -> Event"},
    {"schedule_periodic", (PyCFunction)fastcore_schedule_periodic,
     METH_VARARGS | METH_KEYWORDS,
     "schedule_periodic(interval_ns, callback, *args, label=None, "
     "first_delay=None) -> PeriodicEvent"},
    {"cancel", (PyCFunction)fastcore_cancel, METH_O,
     "Cancel a pending event (or a PeriodicEvent handle)."},
    {"run", (PyCFunction)(void (*)(void))fastcore_run,
     METH_VARARGS | METH_KEYWORDS, "run(until=None) -> now"},
    {"run_for", (PyCFunction)fastcore_run_for, METH_O,
     "run_for(duration) -> now"},
    {"step", (PyCFunction)fastcore_step, METH_NOARGS,
     "Fire the single next pending event."},
    {"peek_time", (PyCFunction)fastcore_peek_time, METH_NOARGS,
     "Time of the next pending event, or None."},
    {"set_sanitize_hook", (PyCFunction)fastcore_set_sanitize_hook,
     METH_VARARGS, "Unsupported on the compiled core (raises)."},
    {"clear_sanitize_hook", (PyCFunction)fastcore_clear_sanitize_hook,
     METH_NOARGS, "No-op: the compiled core never has a hook installed."},
    {NULL},
};

static PyGetSetDef fastcore_getset[] = {
    {"now", (getter)fastcore_get_now, NULL,
     "Current simulation time in nanoseconds.", NULL},
    {"running", (getter)fastcore_get_running, NULL, NULL, NULL},
    {"stats", (getter)fastcore_get_stats, NULL,
     "Counters describing scheduler activity.", NULL},
    {NULL},
};

static PyTypeObject FastCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._fastcore._corec.FastCore",
    .tp_basicsize = sizeof(FastCoreObject),
    .tp_dealloc = (destructor)fastcore_dealloc,
    .tp_repr = (reprfunc)fastcore_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)fastcore_traverse,
    .tp_clear = (inquiry)fastcore_clear_impl,
    .tp_methods = fastcore_methods,
    .tp_getset = fastcore_getset,
    .tp_new = fastcore_new,
    .tp_doc = "Compiled simulator core, bit-identical to repro.sim."
              "Simulator (backend 'fast-c').",
};

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._fastcore._corec",
    .m_doc = "Hand-written C port of the simulator hot path.",
    .m_size = -1,
    .m_methods = corec_module_methods,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    PyObject *m = NULL, *errors = NULL, *backend_name = NULL;

    errors = PyImport_ImportModule("repro.sim.errors");
    if (errors == NULL)
        return NULL;
    ClockError = PyObject_GetAttrString(errors, "ClockError");
    SchedulingError = PyObject_GetAttrString(errors, "SchedulingError");
    Py_DECREF(errors);
    if (ClockError == NULL || SchedulingError == NULL)
        goto fail;

    state_strings[ST_PENDING] = PyUnicode_InternFromString("pending");
    state_strings[ST_FIRED] = PyUnicode_InternFromString("fired");
    state_strings[ST_CANCELLED] = PyUnicode_InternFromString("cancelled");
    if (state_strings[0] == NULL || state_strings[1] == NULL ||
        state_strings[2] == NULL)
        goto fail;

    if (PyType_Ready(&CEvent_Type) < 0 ||
        PyType_Ready(&CPeriodic_Type) < 0 ||
        PyType_Ready(&FastCore_Type) < 0)
        goto fail;

    backend_name = PyUnicode_FromString("fast-c");
    if (backend_name == NULL ||
        PyDict_SetItemString(FastCore_Type.tp_dict, "backend_name",
                             backend_name) < 0)
        goto fail;
    Py_CLEAR(backend_name);

    m = PyModule_Create(&corec_module);
    if (m == NULL)
        goto fail;
    Py_INCREF(&FastCore_Type);
    if (PyModule_AddObject(m, "FastCore", (PyObject *)&FastCore_Type) < 0) {
        Py_DECREF(&FastCore_Type);
        goto fail;
    }
    Py_INCREF(&CEvent_Type);
    if (PyModule_AddObject(m, "Event", (PyObject *)&CEvent_Type) < 0) {
        Py_DECREF(&CEvent_Type);
        goto fail;
    }
    Py_INCREF(&CPeriodic_Type);
    if (PyModule_AddObject(m, "PeriodicEvent",
                           (PyObject *)&CPeriodic_Type) < 0) {
        Py_DECREF(&CPeriodic_Type);
        goto fail;
    }
    return m;

fail:
    Py_XDECREF(backend_name);
    Py_XDECREF(m);
    return NULL;
}
