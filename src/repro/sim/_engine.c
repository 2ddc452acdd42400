/* Compiled hot path for the discrete-event engine and the SFS-heuristic
 * surplus refresh.
 *
 * This module is the optional C twin of repro/sim/engine.py: an
 * ``Engine`` type implementing the same calendar-queue event loop
 * (one bucket per exact timestamp, a C double min-heap over the
 * distinct times, whole-bucket batch dispatch), plus a
 * ``sfs_recompute`` helper that runs the Eq. 4 surplus-recompute loop
 * of repro/core/sfs_heuristic.py at C speed for float tag arithmetic.
 *
 * Behavioural contract: bit-for-bit identical event order and
 * arithmetic versus the pure-Python implementations. Every float
 * computation here is the same IEEE-double expression evaluated in the
 * same order as the Python source (CPython floats *are* C doubles), and
 * the (time, seq) total order is preserved by construction: seq is
 * assigned monotonically, so bucket append order is seq order.
 * tests/test_eventq.py pins the equivalence.
 *
 * Build: optional — ``python setup.py build_ext --inplace`` (or
 * ``SFS_BUILD_EXT=1 pip install -e .``). The pure-Python engine is the
 * always-available fallback; repro/sim/engine.py selects at import per
 * the SFS_ENGINE policy.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdlib.h>

/* Raise `exc` with a printf-style message whose %R slots are two C
 * doubles (PyErr_Format has no float directive). */
static void
raise_with_two_doubles(PyObject *exc, const char *fmt, double a, double b)
{
    PyObject *ao = PyFloat_FromDouble(a);
    PyObject *bo = PyFloat_FromDouble(b);
    if (ao != NULL && bo != NULL)
        PyErr_Format(exc, fmt, ao, bo);
    Py_XDECREF(ao);
    Py_XDECREF(bo);
}

/* ------------------------------------------------------------------ */
/* interned attribute / dict-key names (created at module init)        */
/* ------------------------------------------------------------------ */

static PyObject *str_phi;   /* "phi"   */
static PyObject *str_sched; /* "sched" */
static PyObject *str_tid;   /* "tid"   */
static PyObject *str_S;     /* "S"     */
static PyObject *str_alpha; /* "alpha" */

/* ------------------------------------------------------------------ */
/* EventHandle                                                         */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *fn;
    PyObject *args;    /* always a tuple */
    int cancelled;
    PyObject *engine;  /* strong ref while live; NULL once fired/cancelled */
} HandleObject;

static PyTypeObject Handle_Type; /* forward */

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    long long fired;
    long long live;
    PyObject *buckets;   /* dict: float time -> list[EventHandle] (seq order) */
    double *times;       /* C binary min-heap of the distinct bucket times */
    Py_ssize_t times_len;
    Py_ssize_t times_cap;
    PyObject *head;      /* bucket being drained one event at a time, or NULL */
    Py_ssize_t head_pos;
    double head_time;
} EngineObject;

static PyTypeObject Engine_Type; /* forward */

static void
Handle_dealloc(HandleObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->fn);
    Py_XDECREF(self->args);
    Py_XDECREF(self->engine);
    PyObject_GC_Del(self);
}

static int
Handle_traverse(HandleObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    Py_VISIT(self->engine);
    return 0;
}

static int
Handle_clear(HandleObject *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    Py_CLEAR(self->engine);
    return 0;
}

static PyObject *
Handle_cancel(HandleObject *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->cancelled) {
        self->cancelled = 1;
        if (self->engine != NULL) {
            ((EngineObject *)self->engine)->live--;
            Py_CLEAR(self->engine);
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Handle_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_LT ||
        !PyObject_TypeCheck(a, &Handle_Type) ||
        !PyObject_TypeCheck(b, &Handle_Type)) {
        Py_RETURN_NOTIMPLEMENTED;
    }
    HandleObject *ha = (HandleObject *)a, *hb = (HandleObject *)b;
    int lt = (ha->time < hb->time) ||
             (ha->time == hb->time && ha->seq < hb->seq);
    return PyBool_FromLong(lt);
}

static PyObject *
Handle_repr(HandleObject *self)
{
    PyObject *t = PyFloat_FromDouble(self->time);
    if (t == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "<EventHandle t=%R (%s)>", t,
        self->cancelled ? "cancelled" : "pending");
    Py_DECREF(t);
    return r;
}

static PyObject *
Handle_get_cancelled(HandleObject *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyMemberDef Handle_members[] = {
    {"time", T_DOUBLE, offsetof(HandleObject, time), READONLY,
     "absolute fire time"},
    {"seq", T_LONGLONG, offsetof(HandleObject, seq), READONLY,
     "monotonic scheduling serial (FIFO tie-break)"},
    {"fn", T_OBJECT_EX, offsetof(HandleObject, fn), READONLY,
     "the scheduled callable"},
    {"args", T_OBJECT_EX, offsetof(HandleObject, args), READONLY,
     "positional arguments for fn"},
    {NULL}
};

static PyGetSetDef Handle_getset[] = {
    {"cancelled", (getter)Handle_get_cancelled, NULL,
     "whether cancel() was called before the event fired", NULL},
    {NULL}
};

static PyMethodDef Handle_methods[] = {
    {"cancel", (PyCFunction)Handle_cancel, METH_NOARGS,
     "Prevent the event from firing (no-op if already fired)."},
    {NULL}
};

static PyTypeObject Handle_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._engine.EventHandle",
    .tp_basicsize = sizeof(HandleObject),
    .tp_dealloc = (destructor)Handle_dealloc,
    .tp_repr = (reprfunc)Handle_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Handle to a scheduled event; allows O(1) cancellation.",
    .tp_traverse = (traverseproc)Handle_traverse,
    .tp_clear = (inquiry)Handle_clear,
    .tp_richcompare = Handle_richcompare,
    .tp_methods = Handle_methods,
    .tp_members = Handle_members,
    .tp_getset = Handle_getset,
};

/* ------------------------------------------------------------------ */
/* Engine: the C double min-heap of distinct bucket times              */
/* ------------------------------------------------------------------ */

static int
times_push(EngineObject *self, double v)
{
    if (self->times_len == self->times_cap) {
        Py_ssize_t cap = self->times_cap ? self->times_cap * 2 : 64;
        double *grown = PyMem_Realloc(self->times, cap * sizeof(double));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->times = grown;
        self->times_cap = cap;
    }
    double *a = self->times;
    Py_ssize_t i = self->times_len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (a[parent] <= v)
            break;
        a[i] = a[parent];
        i = parent;
    }
    a[i] = v;
    return 0;
}

static double
times_pop(EngineObject *self)
{
    double *a = self->times;
    double top = a[0];
    double last = a[--self->times_len];
    Py_ssize_t n = self->times_len;
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && a[child + 1] < a[child])
            child++;
        if (last <= a[child])
            break;
        a[i] = a[child];
        i = child;
    }
    if (n > 0)
        a[i] = last;
    return top;
}

/* ------------------------------------------------------------------ */
/* Engine type                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if ((args != NULL && PyTuple_GET_SIZE(args) > 0) ||
        (kwds != NULL && PyDict_GET_SIZE(kwds) > 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "the compiled Engine takes no arguments (its "
                        "event queue is the built-in calendar queue; "
                        "use repro.sim.engine.PyEngine to pick a queue)");
        return NULL;
    }
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0.0;
    self->seq = 0;
    self->fired = 0;
    self->live = 0;
    self->buckets = PyDict_New();
    if (self->buckets == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->times = NULL;
    self->times_len = 0;
    self->times_cap = 0;
    self->head = NULL;
    self->head_pos = 0;
    self->head_time = INFINITY;
    return (PyObject *)self;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->buckets);
    Py_XDECREF(self->head);
    PyMem_Free(self->times);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->buckets);
    Py_VISIT(self->head);
    return 0;
}

static int
Engine_clear_gc(EngineObject *self)
{
    Py_CLEAR(self->buckets);
    Py_CLEAR(self->head);
    return 0;
}

/* Queue a freshly created handle: O(1) into an existing same-time
 * bucket, O(log B) when the timestamp is new (B = distinct times). */
static int
engine_push(EngineObject *self, HandleObject *handle)
{
    PyObject *key = PyFloat_FromDouble(handle->time);
    if (key == NULL)
        return -1;
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, key);
    if (bucket != NULL) {
        int rc = PyList_Append(bucket, (PyObject *)handle);
        Py_DECREF(key);
        return rc;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    bucket = PyList_New(1);
    if (bucket == NULL) {
        Py_DECREF(key);
        return -1;
    }
    Py_INCREF(handle);
    PyList_SET_ITEM(bucket, 0, (PyObject *)handle);
    int rc = PyDict_SetItem(self->buckets, key, bucket);
    Py_DECREF(bucket);
    Py_DECREF(key);
    if (rc < 0)
        return -1;
    return times_push(self, handle->time);
}

static PyObject *
engine_schedule_common(EngineObject *self, double when, PyObject *args,
                       Py_ssize_t first_arg)
{
    /* `!(when >= now)` rejects both the past and NaN with one test,
     * mirroring PyEngine.schedule_at. */
    if (!(when >= self->now)) {
        raise_with_two_doubles(PyExc_ValueError,
                               "cannot schedule event in the past: "
                               "%R < now %R", when, self->now);
        return NULL;
    }
    PyObject *fn = PyTuple_GET_ITEM(args, first_arg - 1);
    PyObject *rest = PyTuple_GetSlice(args, first_arg,
                                      PyTuple_GET_SIZE(args));
    if (rest == NULL)
        return NULL;
    HandleObject *handle = PyObject_GC_New(HandleObject, &Handle_Type);
    if (handle == NULL) {
        Py_DECREF(rest);
        return NULL;
    }
    handle->time = when;
    handle->seq = self->seq;
    Py_INCREF(fn);
    handle->fn = fn;
    handle->args = rest; /* stolen */
    handle->cancelled = 0;
    Py_INCREF(self);
    handle->engine = (PyObject *)self;
    PyObject_GC_Track(handle);
    self->seq++;
    self->live++;
    if (engine_push(self, handle) < 0) {
        /* roll back so the failed schedule leaves no trace */
        self->live--;
        Py_CLEAR(handle->engine);
        Py_DECREF(handle);
        return NULL;
    }
    return (PyObject *)handle;
}

PyDoc_STRVAR(schedule_at_doc,
"schedule_at(when, fn, *args) -> EventHandle\n\n"
"Schedule fn(*args) to fire at absolute time `when`. Raises ValueError\n"
"if `when` is in the past (or NaN); simultaneous events fire in\n"
"scheduling order.");

static PyObject *
Engine_schedule_at(EngineObject *self, PyObject *args)
{
    if (PyTuple_GET_SIZE(args) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at() requires (when, fn, *args)");
        return NULL;
    }
    double when = PyFloat_AsDouble(PyTuple_GET_ITEM(args, 0));
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    return engine_schedule_common(self, when, args, 2);
}

PyDoc_STRVAR(schedule_after_doc,
"schedule_after(delay, fn, *args) -> EventHandle\n\n"
"Schedule fn(*args) to fire `delay` seconds from now (delay >= 0).");

static PyObject *
Engine_schedule_after(EngineObject *self, PyObject *args)
{
    if (PyTuple_GET_SIZE(args) < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_after() requires (delay, fn, *args)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(PyTuple_GET_ITEM(args, 0));
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        raise_with_two_doubles(PyExc_ValueError,
                               "delay must be >= 0, got %R", delay, 0.0);
        return NULL;
    }
    return engine_schedule_common(self, self->now + delay, args, 2);
}

/* Pop the earliest bucket with time <= bound. Returns a NEW reference
 * to the batch list (possibly a tail slice of a partially drained
 * head), or NULL with no exception set when nothing is due, or NULL
 * with an exception set on (allocation) failure. The batch may be
 * entirely cancelled — the caller skips those. */
static PyObject *
engine_next_batch(EngineObject *self, double bound)
{
    if (self->head != NULL) {
        if (self->head_time > bound)
            return NULL;
        PyObject *batch;
        if (self->head_pos == 0) {
            batch = self->head;
            self->head = NULL;
        }
        else {
            batch = PyList_GetSlice(self->head, self->head_pos,
                                    PyList_GET_SIZE(self->head));
            Py_CLEAR(self->head);
            if (batch == NULL)
                return NULL;
        }
        return batch;
    }
    if (self->times_len == 0 || self->times[0] > bound)
        return NULL;
    double when = times_pop(self);
    PyObject *key = PyFloat_FromDouble(when);
    if (key == NULL)
        return NULL;
    PyObject *bucket = PyDict_GetItemWithError(self->buckets, key);
    if (bucket == NULL) {
        /* impossible by construction: every heap time has a bucket */
        Py_DECREF(key);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError,
                            "calendar-queue invariant violated: "
                            "heap time with no bucket");
        return NULL;
    }
    Py_INCREF(bucket);
    if (PyDict_DelItem(self->buckets, key) < 0) {
        Py_DECREF(bucket);
        Py_DECREF(key);
        return NULL;
    }
    Py_DECREF(key);
    return bucket;
}

/* Fire every event with time <= bound, batch by batch. On a callback
 * exception the unfired tail of the current batch becomes the new head
 * bucket, so the queue looks as if those events were never popped. */
static int
engine_drain(EngineObject *self, double bound)
{
    for (;;) {
        PyObject *batch = engine_next_batch(self, bound);
        if (batch == NULL)
            return PyErr_Occurred() ? -1 : 0;
        Py_ssize_t n = PyList_GET_SIZE(batch);
        Py_ssize_t i;
        int any_live = 0;
        for (i = 0; i < n; i++) {
            if (!((HandleObject *)PyList_GET_ITEM(batch, i))->cancelled) {
                any_live = 1;
                break;
            }
        }
        if (!any_live) { /* bucket was entirely cancelled: skip it */
            Py_DECREF(batch);
            continue;
        }
        self->now = ((HandleObject *)PyList_GET_ITEM(batch, 0))->time;
        for (i = 0; i < n; i++) {
            HandleObject *h = (HandleObject *)PyList_GET_ITEM(batch, i);
            if (h->cancelled)
                continue;
            /* Counters move before the callback runs, exactly as in
             * step(): a callback reading `pending` or `events_fired`
             * must see the same values on either code path. */
            self->fired++;
            self->live--;
            Py_CLEAR(h->engine);
            PyObject *res = PyObject_CallObject(h->fn, h->args);
            if (res == NULL) {
                if (i + 1 < n) {
                    self->head = batch; /* steal our batch reference */
                    self->head_pos = i + 1;
                    self->head_time = self->now;
                }
                else {
                    Py_DECREF(batch);
                }
                return -1;
            }
            Py_DECREF(res);
        }
        Py_DECREF(batch);
    }
}

/* Fire the single next pending event. Returns 1 if one fired, 0 if the
 * queue is empty, -1 on exception. */
static int
engine_step_inner(EngineObject *self)
{
    for (;;) {
        if (self->head == NULL) {
            if (self->times_len == 0)
                return 0;
            double when = times_pop(self);
            PyObject *key = PyFloat_FromDouble(when);
            if (key == NULL)
                return -1;
            PyObject *bucket = PyDict_GetItemWithError(self->buckets, key);
            if (bucket == NULL) {
                Py_DECREF(key);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_RuntimeError,
                                    "calendar-queue invariant violated: "
                                    "heap time with no bucket");
                return -1;
            }
            Py_INCREF(bucket);
            if (PyDict_DelItem(self->buckets, key) < 0) {
                Py_DECREF(bucket);
                Py_DECREF(key);
                return -1;
            }
            Py_DECREF(key);
            self->head = bucket;
            self->head_pos = 0;
            self->head_time = when;
        }
        PyObject *head = self->head;
        Py_ssize_t size = PyList_GET_SIZE(head);
        Py_ssize_t pos = self->head_pos;
        while (pos < size) {
            HandleObject *h = (HandleObject *)PyList_GET_ITEM(head, pos);
            pos++;
            if (h->cancelled)
                continue;
            Py_INCREF(h); /* keep h alive if we drop the head list */
            if (pos == size)
                Py_CLEAR(self->head);
            else
                self->head_pos = pos;
            self->now = h->time;
            self->fired++;
            self->live--;
            Py_CLEAR(h->engine);
            PyObject *res = PyObject_CallObject(h->fn, h->args);
            Py_DECREF(h);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
            return 1;
        }
        Py_CLEAR(self->head);
    }
}

PyDoc_STRVAR(step_doc,
"step() -> bool\n\n"
"Fire the next pending event. Returns False if the queue is empty.");

static PyObject *
Engine_step(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    int rc = engine_step_inner(self);
    if (rc < 0)
        return NULL;
    return PyBool_FromLong(rc);
}

PyDoc_STRVAR(run_until_doc,
"run_until(t_end)\n\n"
"Process all events with time <= t_end; leave now == t_end. Events\n"
"scheduled exactly at t_end do fire.");

static PyObject *
Engine_run_until(EngineObject *self, PyObject *arg)
{
    double t_end = PyFloat_AsDouble(arg);
    if (t_end == -1.0 && PyErr_Occurred())
        return NULL;
    if (t_end < self->now) {
        raise_with_two_doubles(PyExc_ValueError,
                               "t_end %R is in the past (now=%R)",
                               t_end, self->now);
        return NULL;
    }
    if (engine_drain(self, t_end) < 0)
        return NULL;
    self->now = t_end;
    Py_RETURN_NONE;
}

PyDoc_STRVAR(run_doc,
"run(max_events=None) -> int\n\n"
"Run until the event queue is empty. `max_events` bounds the number of\n"
"events fired (a safety valve for workloads that regenerate events\n"
"forever). Returns the number of events fired by this call.");

static PyObject *
Engine_run(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"max_events", NULL};
    PyObject *max_events = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O", kwlist, &max_events))
        return NULL;
    if (max_events == Py_None) {
        long long before = self->fired;
        if (engine_drain(self, INFINITY) < 0)
            return NULL;
        return PyLong_FromLongLong(self->fired - before);
    }
    long long cap = PyLong_AsLongLong(max_events);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    long long fired = 0;
    while (fired < cap) {
        int rc = engine_step_inner(self);
        if (rc < 0)
            return NULL;
        if (rc == 0)
            break;
        fired++;
    }
    return PyLong_FromLongLong(fired);
}

static PyObject *
Engine_get_now(EngineObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Engine_get_events_fired(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->fired);
}

static PyObject *
Engine_get_pending(EngineObject *self, void *closure)
{
    return PyLong_FromLongLong(self->live);
}

static PyObject *
Engine_get_queue_kind(EngineObject *self, void *closure)
{
    return PyUnicode_FromString("calendar");
}

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL,
     "Current simulation time in seconds.", NULL},
    {"events_fired", (getter)Engine_get_events_fired, NULL,
     "Number of events processed so far (instrumentation).", NULL},
    {"pending", (getter)Engine_get_pending, NULL,
     "Number of not-yet-fired, not-cancelled events - O(1).", NULL},
    {"queue_kind", (getter)Engine_get_queue_kind, NULL,
     "Event-queue kind (always the built-in calendar queue).", NULL},
    {NULL}
};

static PyMethodDef Engine_methods[] = {
    {"schedule_at", (PyCFunction)Engine_schedule_at, METH_VARARGS,
     schedule_at_doc},
    {"schedule_after", (PyCFunction)Engine_schedule_after, METH_VARARGS,
     schedule_after_doc},
    {"step", (PyCFunction)Engine_step, METH_NOARGS, step_doc},
    {"run_until", (PyCFunction)Engine_run_until, METH_O, run_until_doc},
    {"run", (PyCFunction)Engine_run, METH_VARARGS | METH_KEYWORDS, run_doc},
    {NULL}
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._engine.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Discrete-event simulation clock and calendar event queue "
              "(compiled). Behaviourally identical to "
              "repro.sim.engine.PyEngine.",
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear_gc,
    .tp_methods = Engine_methods,
    .tp_getset = Engine_getset,
    .tp_new = Engine_new,
};

/* ------------------------------------------------------------------ */
/* sfs_recompute: the Eq. 4 surplus loop of sfs_heuristic.py in C      */
/* ------------------------------------------------------------------ */

typedef struct {
    double alpha;
    long long tid;
    PyObject *task;    /* borrowed from the input sequence */
    PyObject *alpha_o; /* owned PyFloat(alpha) */
    PyObject *tid_o;   /* owned PyLong(tid) */
} recompute_entry;

static int
recompute_cmp(const void *pa, const void *pb)
{
    const recompute_entry *a = *(recompute_entry *const *)pa;
    const recompute_entry *b = *(recompute_entry *const *)pb;
    if (a->alpha < b->alpha) return -1;
    if (a->alpha > b->alpha) return 1;
    if (a->tid < b->tid) return -1;
    if (a->tid > b->tid) return 1;
    return 0;
}

static inline int
entry_lt(const recompute_entry *a, const recompute_entry *b)
{
    if (a->alpha != b->alpha)
        return a->alpha < b->alpha;
    return a->tid < b->tid;
}

/* Sort an array of entry pointers. The input is the surplus queue in
 * its previous sorted order with freshly recomputed keys — §3.2's
 * "mostly sorted" observation — so insertion sort runs in O(n +
 * inversions). A shift budget bails out to qsort if the order has
 * decayed (a valid permutation at any point, so qsort can take over). */
static void
sort_entries(recompute_entry **ptrs, Py_ssize_t n)
{
    size_t budget = (size_t)n * 8 + 64;
    for (Py_ssize_t i = 1; i < n; i++) {
        recompute_entry *e = ptrs[i];
        Py_ssize_t j = i - 1;
        while (j >= 0 && entry_lt(e, ptrs[j])) {
            ptrs[j + 1] = ptrs[j];
            j--;
            if (budget-- == 0) {
                ptrs[j + 1] = e;
                qsort(ptrs, (size_t)n, sizeof(recompute_entry *),
                      recompute_cmp);
                return;
            }
        }
        ptrs[j + 1] = e;
    }
}

/* Cached slot offsets for one Task type: with __slots__, phi/sched/tid
 * are fixed-offset member descriptors, so reading them is one load
 * instead of a generic attribute lookup. Falls back to getattr when the
 * type doesn't match the cache (subclasses, test doubles). */
typedef struct {
    PyTypeObject *type; /* borrowed; identity-checked per call */
    Py_ssize_t phi_off;
    Py_ssize_t sched_off;
    Py_ssize_t tid_off;
} slot_cache;

static slot_cache task_slots = {NULL, 0, 0, 0};

static Py_ssize_t
member_offset(PyTypeObject *type, PyObject *name)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)type, name);
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    Py_ssize_t off = -1;
    if (Py_TYPE(descr) == &PyMemberDescr_Type) {
        PyMemberDef *m = ((PyMemberDescrObject *)descr)->d_member;
        if (m != NULL && m->type == T_OBJECT_EX && !(m->flags & READONLY))
            off = m->offset;
    }
    Py_DECREF(descr);
    return off;
}

static int
slot_cache_fill(slot_cache *cache, PyTypeObject *type)
{
    cache->phi_off = member_offset(type, str_phi);
    cache->sched_off = member_offset(type, str_sched);
    cache->tid_off = member_offset(type, str_tid);
    if (cache->phi_off < 0 || cache->sched_off < 0 || cache->tid_off < 0) {
        cache->type = NULL;
        return 0; /* not slot-backed: use generic getattr */
    }
    Py_INCREF(type); /* pin the cached type for the process lifetime */
    Py_XDECREF(cache->type);
    cache->type = type;
    return 1;
}

/* Read a T_OBJECT_EX slot; NULL + AttributeError when unset. Returns a
 * BORROWED reference (the task keeps the slot alive for the caller's
 * whole loop iteration). */
static inline PyObject *
slot_read(PyObject *obj, Py_ssize_t offset, PyObject *name)
{
    PyObject *value = *(PyObject **)((char *)obj + offset);
    if (value == NULL)
        PyErr_SetObject(PyExc_AttributeError, name);
    return value;
}

PyDoc_STRVAR(sfs_recompute_doc,
"sfs_recompute(tasks, v, queue=None)\n\n"
"For every task compute alpha = phi * (sched['S'] - v) (Eq. 4, float\n"
"tag arithmetic), store it in task.sched['alpha'], and produce the\n"
"sorted state SortedTaskList carries: the (alpha, tid) key list, the\n"
"task list in the same order, and the tid -> key dict. With `queue`\n"
"given, that state is installed onto it directly (its _keys/_tasks/\n"
"_cached_key slots are replaced and `comparisons` is charged as\n"
"rebuild_sorted would) and the element count is returned; without it\n"
"the (keys, tasks, cached_key) triple is returned for the caller to\n"
"install. Keys are unique (tid tie-break) so the order is identical to\n"
"the pure-Python recompute-and-rebuild path, bit for bit.");

static PyObject *str_keys_attr;    /* "_keys" */
static PyObject *str_tasks_attr;   /* "_tasks" */
static PyObject *str_cached_attr;  /* "_cached_key" */
static PyObject *str_comparisons;  /* "comparisons" */

static int
install_on_queue(PyObject *queue, PyObject *keys, PyObject *tasks,
                 PyObject *cached, Py_ssize_t n)
{
    if (PyObject_SetAttr(queue, str_keys_attr, keys) < 0 ||
        PyObject_SetAttr(queue, str_tasks_attr, tasks) < 0 ||
        PyObject_SetAttr(queue, str_cached_attr, cached) < 0)
        return -1;
    /* comparisons += n * max(1, n.bit_length()) — same charge as
     * rebuild_sorted/install_sorted. */
    long long bits = 0;
    for (Py_ssize_t m = n; m > 0; m >>= 1)
        bits++;
    if (bits < 1)
        bits = 1;
    PyObject *old = PyObject_GetAttr(queue, str_comparisons);
    if (old == NULL)
        return -1;
    PyObject *delta = PyLong_FromLongLong((long long)n * bits);
    if (delta == NULL) {
        Py_DECREF(old);
        return -1;
    }
    PyObject *fresh = PyNumber_Add(old, delta);
    Py_DECREF(old);
    Py_DECREF(delta);
    if (fresh == NULL)
        return -1;
    int rc = PyObject_SetAttr(queue, str_comparisons, fresh);
    Py_DECREF(fresh);
    return rc;
}

static PyObject *
sfs_recompute(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *tasks_in;
    PyObject *queue = Py_None;
    double v;
    if (!PyArg_ParseTuple(args, "Od|O", &tasks_in, &v, &queue))
        return NULL;
    PyObject *seq = PySequence_Fast(tasks_in, "tasks must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    recompute_entry *ent = NULL;
    recompute_entry **ptrs = NULL;
    PyObject *keys = NULL, *tasks_out = NULL, *cached = NULL, *result = NULL;
    Py_ssize_t filled = 0;
    if (n > 0) {
        ent = PyMem_Malloc((size_t)n * (sizeof(recompute_entry) +
                                        sizeof(recompute_entry *)));
        if (ent == NULL) {
            Py_DECREF(seq);
            return PyErr_NoMemory();
        }
        ptrs = (recompute_entry **)(ent + n);
    }
    /* Resolve the Task type's slot offsets once (identity-checked, so a
     * different task class just refills or falls back to getattr). */
    slot_cache *slots = NULL;
    if (n > 0) {
        PyTypeObject *t0 = Py_TYPE(PySequence_Fast_GET_ITEM(seq, 0));
        if (task_slots.type == t0)
            slots = &task_slots;
        else if (slot_cache_fill(&task_slots, t0))
            slots = &task_slots;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *task = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *phi_o, *sched, *tid_o; /* borrowed when slot-backed */
        int borrowed = (slots != NULL && Py_TYPE(task) == slots->type);
        if (borrowed) {
            phi_o = slot_read(task, slots->phi_off, str_phi);
            sched = phi_o ? slot_read(task, slots->sched_off, str_sched)
                          : NULL;
            tid_o = sched ? slot_read(task, slots->tid_off, str_tid) : NULL;
            if (tid_o == NULL)
                goto fail;
        }
        else {
            phi_o = PyObject_GetAttr(task, str_phi);
            if (phi_o == NULL)
                goto fail;
            sched = PyObject_GetAttr(task, str_sched);
            if (sched == NULL) {
                Py_DECREF(phi_o);
                goto fail;
            }
            tid_o = PyObject_GetAttr(task, str_tid);
            if (tid_o == NULL) {
                Py_DECREF(phi_o);
                Py_DECREF(sched);
                goto fail;
            }
        }
        double phi = PyFloat_AsDouble(phi_o);
        if (!borrowed)
            Py_DECREF(phi_o);
        if (phi == -1.0 && PyErr_Occurred())
            goto fail_triplet;
        if (!PyDict_Check(sched)) {
            PyErr_SetString(PyExc_TypeError, "task.sched must be a dict");
            goto fail_triplet;
        }
        PyObject *S_o = PyDict_GetItemWithError(sched, str_S);
        if (S_o == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, str_S);
            goto fail_triplet;
        }
        double S = PyFloat_AsDouble(S_o);
        if (S == -1.0 && PyErr_Occurred())
            goto fail_triplet;
        /* Same IEEE-double expression, same evaluation order as
         * FloatTags.surplus: alpha = phi * (S - v). */
        double alpha = phi * (S - v);
        PyObject *alpha_o = PyFloat_FromDouble(alpha);
        if (alpha_o == NULL)
            goto fail_triplet;
        if (PyDict_SetItem(sched, str_alpha, alpha_o) < 0) {
            Py_DECREF(alpha_o);
            goto fail_triplet;
        }
        long long tid = PyLong_AsLongLong(tid_o);
        if (tid == -1 && PyErr_Occurred()) {
            Py_DECREF(alpha_o);
            goto fail_triplet;
        }
        if (!borrowed)
            Py_DECREF(sched);
        else
            Py_INCREF(tid_o); /* entry keeps its own tid reference */
        ent[filled].alpha = alpha;
        ent[filled].tid = tid;
        ent[filled].task = task;
        ent[filled].alpha_o = alpha_o;
        ent[filled].tid_o = tid_o;
        ptrs[filled] = &ent[filled];
        filled++;
        continue;
    fail_triplet:
        if (!borrowed) {
            Py_DECREF(sched);
            Py_DECREF(tid_o);
        }
        goto fail;
    }
    if (n > 1)
        sort_entries(ptrs, n);
    keys = PyList_New(n);
    tasks_out = PyList_New(n);
#if PY_VERSION_HEX < 0x030D0000
    cached = _PyDict_NewPresized(n);
#else
    cached = PyDict_New();
#endif
    if (keys == NULL || tasks_out == NULL || cached == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i++) {
        recompute_entry *e = ptrs[i];
        PyObject *key = PyTuple_Pack(2, e->alpha_o, e->tid_o);
        if (key == NULL)
            goto fail;
        PyList_SET_ITEM(keys, i, key); /* steals key */
        Py_INCREF(e->task);
        PyList_SET_ITEM(tasks_out, i, e->task);
        if (PyDict_SetItem(cached, e->tid_o, key) < 0)
            goto fail;
    }
    if (queue == Py_None)
        result = PyTuple_Pack(3, keys, tasks_out, cached);
    else if (install_on_queue(queue, keys, tasks_out, cached, n) == 0)
        result = PyLong_FromSsize_t(n);
fail:
    for (Py_ssize_t i = 0; i < filled; i++) {
        Py_DECREF(ent[i].alpha_o);
        Py_DECREF(ent[i].tid_o);
    }
    PyMem_Free(ent);
    Py_XDECREF(keys);
    Py_XDECREF(tasks_out);
    Py_XDECREF(cached);
    Py_DECREF(seq);
    return result;
}

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"sfs_recompute", sfs_recompute, METH_VARARGS, sfs_recompute_doc},
    {NULL}
};

static struct PyModuleDef enginemodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._engine",
    .m_doc = "Compiled calendar-queue event engine and SFS surplus "
             "recompute (optional; pure-Python fallback in "
             "repro.sim.engine).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__engine(void)
{
    if (PyType_Ready(&Handle_Type) < 0 || PyType_Ready(&Engine_Type) < 0)
        return NULL;
    str_phi = PyUnicode_InternFromString("phi");
    str_sched = PyUnicode_InternFromString("sched");
    str_tid = PyUnicode_InternFromString("tid");
    str_S = PyUnicode_InternFromString("S");
    str_alpha = PyUnicode_InternFromString("alpha");
    str_keys_attr = PyUnicode_InternFromString("_keys");
    str_tasks_attr = PyUnicode_InternFromString("_tasks");
    str_cached_attr = PyUnicode_InternFromString("_cached_key");
    str_comparisons = PyUnicode_InternFromString("comparisons");
    if (str_phi == NULL || str_sched == NULL || str_tid == NULL ||
        str_S == NULL || str_alpha == NULL || str_keys_attr == NULL ||
        str_tasks_attr == NULL || str_cached_attr == NULL ||
        str_comparisons == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&enginemodule);
    if (m == NULL)
        return NULL;
    Py_INCREF(&Engine_Type);
    if (PyModule_AddObject(m, "Engine", (PyObject *)&Engine_Type) < 0) {
        Py_DECREF(&Engine_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&Handle_Type);
    if (PyModule_AddObject(m, "EventHandle", (PyObject *)&Handle_Type) < 0) {
        Py_DECREF(&Handle_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
