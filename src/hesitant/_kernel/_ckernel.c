/* Compiled kernel: the integer-grid twin of `_pykernel`, written against the
 * CPython C API.
 *
 * It has the part of the pure kernel's surface that the law engine's trials
 * call (`Stream`, `canon`, `e_rel`, the set-level `u_*` functions, `gen_hfe`
 * and `gen_hfs`) and the pure kernel's contract, for degrees that fit a C
 * long long. Every call returns exactly what `_pykernel` returns, or raises a
 * Python exception:
 *   - a value outside int64, or a mean cross-product outside __int128,
 *     raises OverflowError;
 *   - an hfe or hfs that is not a tuple raises TypeError;
 *   - an empty hfe raises IndexError in every function that reads its
 *     degrees, as pure does.
 * Scratch space is sized from the input. Relations read only the positions
 * the pure kernel reads, and the set-level functions stop at the shorter
 * operand, as `zip` does. The SplitMix64 streams are bit-identical to the
 * pure ones (Steele, Lea & Flood, OOPSLA 2014).
 *
 * `setup.py` builds it as an optional extension; by hand:
 *   gcc -O2 -Wall -Werror -shared -fPIC $(python3-config --includes) \
 *       _ckernel.c -o _ckernel$(python3-config --extension-suffix)
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>

typedef long long i64;
typedef unsigned long long u64;
typedef __int128 i128;
typedef unsigned __int128 u128;

enum { REL_P, REL_A, REL_M, REL_S, REL_T, REL_N };
enum { UNION, INTER, COMPL };

/* SplitMix64: the state advances by GOLDEN and each output is the state
 * mixed by two xor-shift-multiply rounds. Names and values match _pykernel. */
#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL

static inline u64 next(u64 *state) {
    u64 z = (*state += GOLDEN);
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* floor(z * span / 2**64) for |span| <= 2**64: the pure `(z * n) >> 64`. */
static inline i128 scale(u64 z, i128 span) {
    if (span >= 0)
        return (i128)(((u128)z * (u128)span) >> 64);
    u128 m = (u128)z * (u128)(-span);
    return -(i128)((m >> 64) + ((u64)m != 0));
}

/* --- arguments and elements --- */

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static int as_i64(PyObject *o, i64 *out) {
    *out = PyLong_AsLongLong(o);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int need_tuple(PyObject *o, const char *what) {
    if (PyTuple_Check(o))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s must be a tuple, not %.100s", what, Py_TYPE(o)->tp_name);
    return -1;
}

static int two_tuples(PyObject *a, PyObject *b, const char *what) {
    return need_tuple(a, what) || need_tuple(b, what);
}

/* t[i] for 0 <= i < len(t); IndexError otherwise, as `t[0]` or `t[-1]` of
 * an empty tuple raises. */
static int item_at(PyObject *t, Py_ssize_t i, i64 *out) {
    if (i < 0 || i >= PyTuple_GET_SIZE(t)) {
        PyErr_SetString(PyExc_IndexError, "tuple index out of range");
        return -1;
    }
    return as_i64(PyTuple_GET_ITEM(t, i), out);
}

/* IndexError for an empty hfe, where pure raises it explicitly. */
static int nonempty(Py_ssize_t n) {
    if (n)
        return 0;
    PyErr_SetString(PyExc_IndexError, "empty hfe");
    return -1;
}

/* Stores o at t[i] and returns t; for a NULL o, frees t and returns NULL. */
static PyObject *put(PyObject *t, Py_ssize_t i, PyObject *o) {
    if (o) {
        PyTuple_SET_ITEM(t, i, o);
        return t;
    }
    Py_DECREF(t);
    return NULL;
}

/* --- scratch multisets: a degree and the int object it came from --- */

typedef struct {
    i64 v;
    PyObject *o; /* borrowed; NULL for a drawn degree */
} deg;

#define STACK 64

typedef struct {
    deg *v;
    deg stack[STACK];
} scratch;

static deg *grab(scratch *s, Py_ssize_t n) {
    s->v = n <= STACK ? s->stack : PyMem_New(deg, n);
    if (!s->v)
        PyErr_NoMemory();
    return s->v;
}

static void drop(scratch *s) {
    if (s->v != s->stack)
        PyMem_Free(s->v);
}

static int load(PyObject *const *items, Py_ssize_t n, deg *v) {
    for (Py_ssize_t i = 0; i < n; i++) {
        v[i].o = items[i];
        if (as_i64(items[i], &v[i].v))
            return -1;
    }
    return 0;
}

static int cmp_desc(const void *x, const void *y) {
    i64 a = ((const deg *)x)->v, b = ((const deg *)y)->v;
    return (a < b) - (a > b);
}

/* Sorts v descending (insertion sort up to STACK degrees) and packs it into
 * a tuple, reusing the int objects the degrees came from. */
static PyObject *pack_desc(deg *v, Py_ssize_t n) {
    if (n > STACK)
        qsort(v, (size_t)n, sizeof *v, cmp_desc);
    else
        for (Py_ssize_t i = 1, j; i < n; i++) {
            deg key = v[i];
            for (j = i; j > 0 && v[j - 1].v < key.v; j--)
                v[j] = v[j - 1];
            v[j] = key;
        }
    PyObject *t = PyTuple_New(n);
    for (Py_ssize_t i = 0; t && i < n; i++) {
        Py_XINCREF(v[i].o);
        t = put(t, i, v[i].o ? v[i].o : PyLong_FromLongLong(v[i].v));
    }
    return t;
}

/* --- element level --- */

/* Union keeps the degrees of a + b that are >= the larger minimum,
 * intersection those <= the smaller maximum; both sort what they keep
 * descending. The bound is read first, so an empty hfe raises IndexError. */
static PyObject *combine(PyObject *a, PyObject *b, int is_union) {
    if (two_tuples(a, b, "hfe"))
        return NULL;
    Py_ssize_t na = PyTuple_GET_SIZE(a), nb = PyTuple_GET_SIZE(b), n = 0;
    i64 x, y;
    if (is_union ? item_at(a, na - 1, &x) || item_at(b, nb - 1, &y)
                 : item_at(a, 0, &x) || item_at(b, 0, &y))
        return NULL;
    i64 bound = is_union ? (x >= y ? x : y) : (x <= y ? x : y);
    scratch s;
    deg *v = grab(&s, na + nb);
    PyObject *out = NULL;
    if (v && !load(PySequence_Fast_ITEMS(a), na, v) && !load(PySequence_Fast_ITEMS(b), nb, v + na)) {
        for (Py_ssize_t i = 0; i < na + nb; i++)
            if (is_union ? v[i].v >= bound : v[i].v <= bound)
                v[n++] = v[i];
        out = pack_desc(v, n);
    }
    drop(&s);
    return out;
}

/* {one - g} for g in reversed(a); IndexError for an empty a. */
static PyObject *compl(PyObject *a, PyObject *one) {
    if (need_tuple(a, "hfe") || nonempty(PyTuple_GET_SIZE(a)))
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(a);
    PyObject *t = PyTuple_New(n);
    i64 u, g, r;
    if (!t)
        return NULL;
    if (as_i64(one, &u))
        return put(t, 0, NULL);
    for (Py_ssize_t i = 0; t && i < n; i++) {
        if (as_i64(PyTuple_GET_ITEM(a, n - 1 - i), &g))
            return put(t, i, NULL);
        if (__builtin_sub_overflow(u, g, &r)) {
            PyErr_SetString(PyExc_OverflowError, "complement degree outside int64");
            return put(t, i, NULL);
        }
        t = put(t, i, PyLong_FromLongLong(r));
    }
    return t;
}

/* The union, intersection, or complement (b the unit `one`) of one position */
static PyObject *elem(int op, PyObject *a, PyObject *b) {
    return op == COMPL ? compl(a, b) : combine(a, b, op == UNION);
}

/* The relation `code` between hfes a and b: 1, 0, or -1 with an exception
 * set. ⊂m compares sum(a) * len(b) with sum(b) * len(a) exactly. */
static int rel(long code, PyObject *a, PyObject *b) {
    Py_ssize_t na = PyTuple_GET_SIZE(a), nb = PyTuple_GET_SIZE(b), i;
    i64 x, y;
    switch (code) {
    case REL_P:
        return item_at(a, 0, &x) || item_at(b, 0, &y) ? -1 : x <= y;
    case REL_A:
        if (item_at(a, 0, &x) || item_at(b, 0, &y))
            return -1;
        if (x > y)
            return 0;
        return item_at(a, na - 1, &x) || item_at(b, nb - 1, &y) ? -1 : x <= y;
    case REL_M: {
        i128 sa = 0, sb = 0, l, r;
        if (nonempty(na) || nonempty(nb))
            return -1;
        for (i = 0; i < na; i++) {
            if (item_at(a, i, &x))
                return -1;
            sa += x;
        }
        for (i = 0; i < nb; i++) {
            if (item_at(b, i, &y))
                return -1;
            sb += y;
        }
        if (__builtin_mul_overflow(sa, (i128)nb, &l) || __builtin_mul_overflow(sb, (i128)na, &r)) {
            PyErr_SetString(PyExc_OverflowError, "mean cross-product outside __int128");
            return -1;
        }
        return l <= r;
    }
    case REL_S:
    case REL_T:
        /* ⊂s: a at least as long, b >= a over b's positions;
         * ⊂t: a strictly shorter, b >= a over a's positions */
        if (nonempty(na) || nonempty(nb))
            return -1;
        if (code == REL_S ? na < nb : na >= nb)
            return 0;
        for (i = 0; i < (code == REL_S ? nb : na); i++) {
            if (item_at(b, i, &y) || item_at(a, i, &x))
                return -1;
            if (y < x)
                return 0;
        }
        return 1;
    case REL_N:
        return item_at(a, 0, &x) || item_at(b, nb - 1, &y) ? -1 : x <= y;
    }
    PyErr_Format(PyExc_ValueError, "unknown relation code %ld", code);
    return -1;
}

/* 1 if a ⊂s b, 2 if a ⊂t b, else 0; -1 with an exception set. */
static int sot(PyObject *a, PyObject *b) {
    int r = rel(REL_S, a, b);
    if (r)
        return r;
    r = rel(REL_T, a, b);
    return r < 0 ? -1 : 2 * r;
}

static int as_code(PyObject *o, long *code) {
    *code = PyLong_AsLong(o);
    return (*code == -1 && PyErr_Occurred()) ? -1 : 0;
}

#define FASTCALL(name) static PyObject *name(PyObject *m, PyObject *const *args, Py_ssize_t nargs)

FASTCALL(e_rel) {
    long code;
    int r;
    if (arity("e_rel", nargs, 3) || as_code(args[0], &code) || two_tuples(args[1], args[2], "hfe")
        || (r = rel(code, args[1], args[2])) < 0)
        return NULL;
    return PyBool_FromLong(r);
}

static PyObject *canon(PyObject *m, PyObject *values) {
    PyObject *seq = PySequence_Fast(values, "canon() argument must be iterable"), *out = NULL;
    if (!seq)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    scratch s;
    deg *v = grab(&s, n);
    if (v && !load(PySequence_Fast_ITEMS(seq), n, v))
        out = pack_desc(v, n);
    drop(&s);
    Py_DECREF(seq);
    return out;
}

/* --- set level: tuples of hfes, pointwise over universe positions --- */

/* The length of the shorter hfs operand, where `zip` stops; -1 on error. */
static Py_ssize_t zip_len(PyObject *A, PyObject *B) {
    if (two_tuples(A, B, "hfs"))
        return -1;
    return Py_MIN(PyTuple_GET_SIZE(A), PyTuple_GET_SIZE(B));
}

/* (elem(op, a, b) for a, b in zip(A, B)) as a tuple; for COMPL, the
 * complement of every hfe of A, with B the unit. */
static PyObject *u_map(const char *name, int op, PyObject *const *args, Py_ssize_t nargs) {
    if (arity(name, nargs, 2))
        return NULL;
    PyObject *A = args[0], *B = args[1], *t;
    Py_ssize_t n = op != COMPL ? zip_len(A, B) : need_tuple(A, "hfs") ? -1 : PyTuple_GET_SIZE(A);
    if (n < 0 || !(t = PyTuple_New(n)))
        return NULL;
    for (Py_ssize_t i = 0; t && i < n; i++)
        t = put(t, i, elem(op, PyTuple_GET_ITEM(A, i), op == COMPL ? B : PyTuple_GET_ITEM(B, i)));
    return t;
}

FASTCALL(u_union) { return u_map("u_union", UNION, args, nargs); }
FASTCALL(u_inter) { return u_map("u_inter", INTER, args, nargs); }
FASTCALL(u_compl) { return u_map("u_compl", COMPL, args, nargs); }

/* all(test(a, b) for a, b in zip(A, B)), the test being a ⊂s b or a ⊂t b
 * or else ⊂code. The code is checked only once it is used, as in pure. */
static PyObject *u_all(PyObject *A, PyObject *B, int is_sot, long code) {
    Py_ssize_t n = zip_len(A, B);
    if (n < 0)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *a = PyTuple_GET_ITEM(A, i), *b = PyTuple_GET_ITEM(B, i);
        int r;
        if (two_tuples(a, b, "hfe") || (r = is_sot ? sot(a, b) : rel(code, a, b)) < 0)
            return NULL;
        if (!r)
            Py_RETURN_FALSE;
    }
    Py_RETURN_TRUE;
}

FASTCALL(u_rel) {
    long code;
    return arity("u_rel", nargs, 3) || as_code(args[0], &code) ? NULL : u_all(args[1], args[2], 0, code);
}

FASTCALL(u_sot) { return arity("u_sot", nargs, 2) ? NULL : u_all(args[0], args[1], 1, 0); }

/* --- random generation on the integer grid --- */

typedef struct {
    PyObject_HEAD
    u64 state;
} StreamObject;

static PyTypeObject StreamType;

/* One hfe drawn from the state *z, as pure `_draw_hfe`: a cardinality
 * uniform in [lo, hi], then that many degrees uniform on {0, ..., den}. */
static PyObject *draw(u64 *z, i64 den, i64 lo, i64 hi) {
    i128 k = lo + scale(next(z), (i128)hi - lo + 1);
    if (k <= 0)
        return PyTuple_New(0);
    if (k > PY_SSIZE_T_MAX)
        return PyErr_NoMemory();
    scratch s;
    deg *v = grab(&s, (Py_ssize_t)k);
    PyObject *out = NULL;
    if (v) {
        for (Py_ssize_t i = 0; i < k; i++)
            v[i] = (deg){(i64)scale(next(z), (i128)den + 1), NULL};
        out = pack_desc(v, (Py_ssize_t)k);
    }
    drop(&s);
    return out;
}

/* gen_hfe(stream, den, lo, hi), or with is_hfs gen_hfs(stream, den, size,
 * lo, hi): drawn on a local state, stored back only on success. */
static PyObject *gen(const char *name, PyObject *const *args, Py_ssize_t nargs, int is_hfs) {
    i64 a[4];
    if (arity(name, nargs, 4 + is_hfs))
        return NULL;
    if (!PyObject_TypeCheck(args[0], &StreamType))
        return PyErr_Format(PyExc_TypeError, "%s() needs a Stream, not %.100s", name, Py_TYPE(args[0])->tp_name);
    for (int i = 0; i < 3 + is_hfs; i++)
        if (as_i64(args[i + 1], &a[i]))
            return NULL;
    StreamObject *s = (StreamObject *)args[0];
    u64 z = s->state;
    i64 den = a[0], size = is_hfs ? a[1] : 0, lo = a[1 + is_hfs], hi = a[2 + is_hfs];
    PyObject *t = is_hfs ? PyTuple_New(size > 0 ? size : 0) : draw(&z, den, lo, hi);
    for (Py_ssize_t i = 0; t && i < size; i++)
        t = put(t, i, draw(&z, den, lo, hi));
    if (t)
        s->state = z;
    return t;
}

FASTCALL(gen_hfe) { return gen("gen_hfe", args, nargs, 0); }
FASTCALL(gen_hfs) { return gen("gen_hfs", args, nargs, 1); }

/* --- Stream: SplitMix64 random stream; deterministic function of its seed --- */

static PyObject *Stream_new(PyTypeObject *type, PyObject *args, PyObject *kw) {
    static char *kwlist[] = {"seed", NULL};
    PyObject *seed;
    if (!PyArg_ParseTupleAndKeywords(args, kw, "O:Stream", kwlist, &seed))
        return NULL;
    u64 state = PyLong_AsUnsignedLongLongMask(seed); /* seed & (2**64 - 1) */
    if (state == (u64)-1 && PyErr_Occurred())
        return NULL;
    StreamObject *self = (StreamObject *)type->tp_alloc(type, 0);
    if (self)
        self->state = state;
    return (PyObject *)self;
}

static PyObject *Stream_u64(StreamObject *self, PyObject *unused) {
    return PyLong_FromUnsignedLongLong(next(&self->state));
}

static PyObject *Stream_below(StreamObject *self, PyObject *n) {
    i64 k;
    return as_i64(n, &k) ? NULL : PyLong_FromLongLong((i64)scale(next(&self->state), k));
}

static PyObject *Stream_randint(StreamObject *self, PyObject *const *args, Py_ssize_t nargs) {
    i64 lo, hi;
    if (arity("randint", nargs, 2) || as_i64(args[0], &lo) || as_i64(args[1], &hi))
        return NULL;
    i128 r = lo + scale(next(&self->state), (i128)hi - lo + 1);
    if (r < LLONG_MIN) /* only an empty range (hi < lo - 1) reaches below lo */
        return PyErr_Format(PyExc_OverflowError, "randint() result outside int64");
    return PyLong_FromLongLong((i64)r);
}

static PyObject *Stream_get_state(StreamObject *self, void *closure) {
    return PyLong_FromUnsignedLongLong(self->state);
}

static int Stream_set_state(StreamObject *self, PyObject *value, void *closure) {
    if (!value) {
        PyErr_SetString(PyExc_TypeError, "cannot delete state");
        return -1;
    }
    u64 state = PyLong_AsUnsignedLongLong(value);
    if (state == (u64)-1 && PyErr_Occurred())
        return -1;
    self->state = state;
    return 0;
}

#define METHOD(c, py, flags, doc) {py, (PyCFunction)(void (*)(void))c, flags, doc}

static PyMethodDef Stream_methods[] = {
    METHOD(Stream_u64, "u64", METH_NOARGS, "Next 64-bit output."),
    METHOD(Stream_below, "below", METH_O, "Uniform draw from range(n) via 64-bit fixed-point scaling."),
    METHOD(Stream_randint, "randint", METH_FASTCALL, "Uniform draw from the inclusive range [lo, hi]."),
    {NULL},
};

static PyGetSetDef Stream_getset[] = {
    {"state", (getter)Stream_get_state, (setter)Stream_set_state, "The 64-bit state.", NULL},
    {NULL},
};

static PyTypeObject StreamType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "hesitant._kernel._ckernel.Stream",
    .tp_doc = "SplitMix64 random stream; deterministic function of its seed.",
    .tp_basicsize = sizeof(StreamObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Stream_new,
    .tp_methods = Stream_methods,
    .tp_getset = Stream_getset,
};

/* --- module --- */

#define FAST(name, doc) METHOD(name, #name, METH_FASTCALL, doc)

static PyMethodDef kernel_methods[] = {
    METHOD(canon, "canon", METH_O, "Canonical form of a degree multiset: descending tuple."),
    FAST(e_rel, "The six inclusion relations on descending degree tuples."),
    FAST(u_union, "Union (degrees >= the larger minimum) at every universe position."),
    FAST(u_inter, "Intersection (degrees <= the smaller maximum) at every universe position."),
    FAST(u_compl, "Complement {one - g} at every universe position."),
    FAST(u_rel, "True iff e_rel holds at every universe position."),
    FAST(u_sot, "True iff a ⊂s b or a ⊂t b at every universe position."),
    FAST(gen_hfe, "Random hfe: cardinality uniform in [card_lo, card_hi], degrees uniform on {0, ..., den}."),
    FAST(gen_hfs, "Random hfs over `size` universe positions."),
    {NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "hesitant._kernel._ckernel",
    .m_doc = "Compiled kernel: integer-grid twin of `_pykernel`.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__ckernel(void) {
    static const char *rel_names[] = {"REL_P", "REL_A", "REL_M", "REL_S", "REL_T", "REL_N"};
    if (PyType_Ready(&StreamType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (!m)
        return NULL;
    int err = PyModule_AddObjectRef(m, "Stream", (PyObject *)&StreamType)
              || PyModule_AddStringConstant(m, "IMPLEMENTATION", "compiled");
    for (int i = REL_P; !err && i <= REL_N; i++)
        err = PyModule_AddIntConstant(m, rel_names[i], i);
    if (err)
        Py_CLEAR(m);
    return m;
}
