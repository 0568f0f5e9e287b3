/* Compiled kernel: the integer-grid twin of `_pykernel`, written against the
 * CPython C API. The contract both kernels keep is stated once, in the
 * module docstring of `_pykernel.py`; this header holds only its C facts.
 *
 * It exports the relation codes and the three entries the law engine calls:
 * `u_rel`, `term` and `draw_plan`. Its union, intersection and complement
 * run only inside `term`.
 *   - Degrees and bounds are read as C long long: a value outside int64
 *     raises OverflowError. The exact mean comparison cross-multiplies in
 *     __int128 and raises OverflowError past it. In the draw domain no span
 *     a draw scales by passes 2**63 and every count is positive, so the
 *     draws need only unsigned 64-bit arithmetic.
 *   - Scratch space is sized from the input: on the stack up to STACK
 *     degrees, from PyMem_New past that (MemoryError where it cannot size).
 *   - `draw_plan` draws from a local state, and a plan or a term program it
 *     cannot read (a slot out of range, a list for a tuple, nesting past
 *     the recursion limit, which Py_EnterRecursiveCall guards) raises.
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

enum { REL_P, REL_A, REL_M, REL_S, REL_T, REL_N, REL_SOT };
/* A term program's operators, as `expressions.program` writes them */
enum { T_UNION = -1, T_INTER = -2, T_COMPL = -3, T_MEET_ALL = -4, T_JOIN_ALL = -5 };

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

/* floor(z * span / 2**64), the pure `(z * n) >> 64`: a draw from
 * range(span). In the draw domain every span is 0 .. 2**63 (0 only where a
 * longer member's cardinality range is the one value lo). */
static inline u64 scale(u64 z, u64 span) { return (u64)(((u128)z * span) >> 64); }

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

/* The term operator op at one position: ∪, ∩, or ᶜ with b the unit `one` */
static PyObject *elem(int op, PyObject *a, PyObject *b) {
    return op == T_COMPL ? compl(a, b) : combine(a, b, op == T_UNION);
}

/* Sets *gt to mean(a) > mean(b) for non-empty hfes, compared as pure
 * compares them: sum(a) * len(b) > sum(b) * len(a), exactly. 0, or -1 with
 * an exception set. */
static int mean_gt(PyObject *a, PyObject *b, int *gt) {
    Py_ssize_t na = PyTuple_GET_SIZE(a), nb = PyTuple_GET_SIZE(b), i;
    i128 sa = 0, sb = 0, l, r;
    i64 x;
    for (i = 0; i < na; i++) {
        if (item_at(a, i, &x))
            return -1;
        sa += x;
    }
    for (i = 0; i < nb; i++) {
        if (item_at(b, i, &x))
            return -1;
        sb += x;
    }
    if (__builtin_mul_overflow(sa, (i128)nb, &l) || __builtin_mul_overflow(sb, (i128)na, &r)) {
        PyErr_SetString(PyExc_OverflowError, "mean cross-product outside __int128");
        return -1;
    }
    *gt = l > r;
    return 0;
}

/* The relation `code` between hfes a and b: 1, 0, or -1 with an exception
 * set. */
static int rel(long code, PyObject *a, PyObject *b) {
    Py_ssize_t na = PyTuple_GET_SIZE(a), nb = PyTuple_GET_SIZE(b), i;
    i64 x, y;
    int gt;
    switch (code) {
    case REL_P:
        return item_at(a, 0, &x) || item_at(b, 0, &y) ? -1 : x <= y;
    case REL_A:
        if (item_at(a, 0, &x) || item_at(b, 0, &y))
            return -1;
        if (x > y)
            return 0;
        return item_at(a, na - 1, &x) || item_at(b, nb - 1, &y) ? -1 : x <= y;
    case REL_M:
        return nonempty(na) || nonempty(nb) || mean_gt(a, b, &gt) ? -1 : !gt;
    case REL_S:
    case REL_T:
    case REL_SOT:
        /* b >= a over the shorter hfe; ⊂s also needs a at least as long,
         * ⊂t a strictly shorter, and REL_SOT (⊂s or ⊂t) neither */
        if (nonempty(na) || nonempty(nb))
            return -1;
        if (code == REL_S ? na < nb : code == REL_T && na >= nb)
            return 0;
        for (i = 0; i < Py_MIN(na, nb); i++) {
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

static int as_code(PyObject *o, long *code) {
    *code = PyLong_AsLong(o);
    return (*code == -1 && PyErr_Occurred()) ? -1 : 0;
}

#define FASTCALL(name) static PyObject *name(PyObject *m, PyObject *const *args, Py_ssize_t nargs)

/* --- set level: tuples of hfes, pointwise over universe positions --- */

/* The length of the shorter hfs operand, where `zip` stops; -1 on error. */
static Py_ssize_t zip_len(PyObject *A, PyObject *B) {
    if (two_tuples(A, B, "hfs"))
        return -1;
    return Py_MIN(PyTuple_GET_SIZE(A), PyTuple_GET_SIZE(B));
}

/* (elem(op, a, b) for a, b in zip(A, B)) as a tuple; for T_COMPL, the
 * complement of every hfe of A, with B the unit. */
static PyObject *set_op(int op, PyObject *A, PyObject *B) {
    PyObject *t;
    Py_ssize_t n = op != T_COMPL ? zip_len(A, B) : need_tuple(A, "hfs") ? -1 : PyTuple_GET_SIZE(A);
    if (n < 0 || !(t = PyTuple_New(n)))
        return NULL;
    for (Py_ssize_t i = 0; t && i < n; i++)
        t = put(t, i, elem(op, PyTuple_GET_ITEM(A, i), op == T_COMPL ? B : PyTuple_GET_ITEM(B, i)));
    return t;
}

/* all(a ⊂code b for a, b in zip(A, B)). The code is checked only once it
 * is used, as in pure. */
static PyObject *u_all(PyObject *A, PyObject *B, long code) {
    Py_ssize_t n = zip_len(A, B);
    if (n < 0)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *a = PyTuple_GET_ITEM(A, i), *b = PyTuple_GET_ITEM(B, i);
        int r;
        if (two_tuples(a, b, "hfe") || (r = rel(code, a, b)) < 0)
            return NULL;
        if (!r)
            Py_RETURN_FALSE;
    }
    Py_RETURN_TRUE;
}

FASTCALL(u_rel) {
    long code;
    return arity("u_rel", nargs, 3) || as_code(args[0], &code) ? NULL : u_all(args[1], args[2], code);
}

/* The value of a postfix term program over the n slots: a slot index
 * pushes that slot's value, and the negative codes pop their operands and
 * push the union, intersection, complement (unit `one`), or the ⋂ or ⋃
 * fold of a family. It raises where pure `term` raises. */
static PyObject *eval_term(PyObject *program, PyObject *const *slots, Py_ssize_t n, PyObject *one) {
    if (need_tuple(program, "term program"))
        return NULL;
    Py_ssize_t len = PyTuple_GET_SIZE(program), top = 0;
    PyObject **stack = PyMem_New(PyObject *, len > 0 ? len : 1), *out = NULL;
    if (!stack)
        return PyErr_NoMemory();
    for (Py_ssize_t j = 0; j < len; j++) {
        long op;
        PyObject *v = NULL;
        if (as_code(PyTuple_GET_ITEM(program, j), &op))
            goto done;
        if (op >= 0) {
            if (op >= n) {
                PyErr_SetString(PyExc_IndexError, "term slot out of range");
                goto done;
            }
            stack[top++] = Py_NewRef(slots[op]);
            continue;
        }
        if (op < T_JOIN_ALL) {
            PyErr_Format(PyExc_ValueError, "unknown term operator %ld", op);
            goto done;
        }
        if (top < (op == T_UNION || op == T_INTER ? 2 : 1)) {
            PyErr_SetString(PyExc_IndexError, "pop from empty list");
            goto done;
        }
        PyObject *x = stack[--top];
        if (op == T_COMPL)
            v = set_op(op, x, one);
        else if (op == T_UNION || op == T_INTER)
            v = set_op(op, stack[top - 1], x);
        else if (need_tuple(x, "family"))
            ;
        else if (!PyTuple_GET_SIZE(x))
            PyErr_SetString(PyExc_TypeError, "reduce() of empty iterable with no initial value");
        else { /* the ⋂ or ⋃ fold of a family */
            v = Py_NewRef(PyTuple_GET_ITEM(x, 0));
            for (Py_ssize_t i = 1; v && i < PyTuple_GET_SIZE(x); i++)
                Py_SETREF(v, set_op(op == T_MEET_ALL ? T_INTER : T_UNION, v, PyTuple_GET_ITEM(x, i)));
        }
        Py_DECREF(x);
        if (!v)
            goto done;
        if (op == T_UNION || op == T_INTER)
            Py_SETREF(stack[top - 1], v);
        else
            stack[top++] = v;
    }
    if (top)
        out = stack[--top];
    else
        PyErr_SetString(PyExc_IndexError, "pop from empty list");
done:
    while (top)
        Py_DECREF(stack[--top]);
    PyMem_Free(stack);
    return out;
}

/* term(program, slots, one): the program's value over the tuple of slots */
FASTCALL(term) {
    if (arity("term", nargs, 3) || need_tuple(args[1], "slots"))
        return NULL;
    return eval_term(args[0], PySequence_Fast_ITEMS(args[1]), PyTuple_GET_SIZE(args[1]), args[2]);
}

/* --- random generation on the integer grid --- */

/* One hfe drawn from the state *z, as pure `_hfes` draws each: a
 * cardinality uniform in [lo, hi] (lo >= 1, and lo = hi + 1 draws lo),
 * then that many degrees uniform on {0, ..., den}. */
static PyObject *draw(u64 *z, i64 den, i64 lo, i64 hi) {
    i64 k = lo + (i64)scale(next(z), (u64)(hi - lo + 1));
    scratch s;
    deg *v = grab(&s, (Py_ssize_t)k); /* MemoryError past what PyMem_New can size */
    PyObject *out = NULL;
    if (v) {
        for (Py_ssize_t i = 0; i < k; i++)
            v[i] = (deg){(i64)scale(next(z), (u64)den + 1), NULL};
        out = pack_desc(v, (Py_ssize_t)k);
    }
    drop(&s);
    return out;
}

/* `count` hfes drawn from the state *z, as a tuple. */
static PyObject *draw_hfes(u64 *z, i64 count, i64 den, i64 lo, i64 hi) {
    PyObject *t = PyTuple_New(count);
    for (Py_ssize_t i = 0; t && i < count; i++)
        t = put(t, i, draw(z, den, lo, hi));
    return t;
}

/* --- one trial of a law: its draw plan ---
 *
 * Codes as `laws/generators.py` writes them; `_pykernel.draw_plan` is the
 * reference. Each step returns 0 when it drew its value, 1 when the bounds
 * make the binding impossible, and -1 with an exception set. */

enum { SET, FAMILY, LADDER, COPY, COINCIDE, ABOVE, BELOW, SUBFAMILY, CHOICE };
enum { ALL, SOME, LONGER };
#define FNV_PRIME 0x100000001B3ULL

typedef struct {
    u64 z; /* the trial stream's state */
    i64 den, lo, hi, flo, fhi, size;
    PyObject *one; /* den as an int, the complement unit of a term */
    PyObject **slots;
    Py_ssize_t nslots;
} trial;

static i64 randint(trial *t, i64 lo, i64 hi) { return lo + (i64)scale(next(&t->z), (u64)(hi - lo + 1)); }

/* move[j] as a long; IndexError past its end, as `move[j]` raises. */
static int field(PyObject *move, Py_ssize_t j, long *out) {
    if (need_tuple(move, "plan move"))
        return -1;
    if (j >= PyTuple_GET_SIZE(move)) {
        PyErr_SetString(PyExc_IndexError, "plan move too short");
        return -1;
    }
    *out = PyLong_AsLong(PyTuple_GET_ITEM(move, j));
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* The slot named by move[j]: a pointer into t->slots, or NULL. */
static PyObject **slot(trial *t, PyObject *move, Py_ssize_t j) {
    long s;
    if (field(move, j, &s))
        return NULL;
    if (s < 0 || s >= t->nslots) {
        PyErr_SetString(PyExc_IndexError, "plan slot out of range");
        return NULL;
    }
    return &t->slots[s];
}

/* Stores a new reference o at *at; 0, or -1 for a NULL o. */
static int store(PyObject **at, PyObject *o) {
    if (!o)
        return -1;
    Py_SETREF(*at, o);
    return 0;
}

static PyObject *family(trial *t) {
    i64 count = randint(t, t->flo, t->fhi);
    PyObject *f = PyTuple_New(count);
    for (Py_ssize_t i = 0; f && i < count; i++)
        f = put(f, i, draw_hfes(&t->z, t->size, t->den, t->lo, t->hi));
    return f;
}

/* Packs the n drawn values v descending into *out. */
static int packed(deg *v, Py_ssize_t n, PyObject **out) {
    *out = pack_desc(v, n);
    return *out ? 0 : -1;
}

/* One hfe b with a ⊂code b and at most hi degrees (⊂s: at most len(a)),
 * or 1 when ⊂t leaves no room. */
static int above(trial *t, PyObject *a, long code, i64 hi, PyObject **out) {
    Py_ssize_t na = PyTuple_GET_SIZE(a), n = 0;
    i64 x, y, den = t->den, k;
    if (code == REL_T && na >= hi)
        return 1;
    u64 z = next(&t->z);
    if (item_at(a, 0, &x))
        return -1;
    if (code == REL_S) /* a has at least lo degrees */
        k = t->lo + (i64)scale(z, (u64)(na - t->lo + 1));
    else if (code == REL_T)
        k = na + 1 + (i64)scale(z, (u64)(hi - na));
    else if (code == REL_P || code == REL_A || code == REL_N)
        k = t->lo + (i64)scale(z, (u64)(hi - t->lo + 1));
    else {
        PyErr_Format(PyExc_ValueError, "no dominating construction for relation code %ld", code);
        return -1;
    }
    Py_ssize_t most = k > na ? (k > PY_SSIZE_T_MAX - 1 ? PY_SSIZE_T_MAX - 1 : (Py_ssize_t)k) : na;
    scratch s;
    deg *v = grab(&s, most + 1);
    int r = -1;
    if (!v)
        return -1;
    if (code == REL_S || code == REL_T) /* dominate a, position by position */
        for (; n < (code == REL_S ? Py_MIN(k, na) : na); n++) {
            if (item_at(a, n, &y))
                goto done;
            v[n] = (deg){y + (i64)scale(next(&t->z), (u64)(den - y) + 1), NULL};
        }
    else if (code != REL_N) /* ⊂p, ⊂a: one degree above a's first */
        v[n++] = (deg){x + (i64)scale(next(&t->z), (u64)(den - x) + 1), NULL};
    if (code == REL_A && item_at(a, na - 1, &x))
        goto done;
    for (; code != REL_S && n < k; n++) /* the rest: above x (⊂n, ⊂a), or anywhere */
        v[n] = (deg){code == REL_N || code == REL_A ? x + (i64)scale(next(&t->z), (u64)(den - x) + 1)
                                                    : (i64)scale(next(&t->z), (u64)den + 1),
                     NULL};
    r = packed(v, n, out);
done:
    drop(&s);
    return r;
}

/* One hfe a with a ⊂code b and lo <= |a| <= hi, or 1 if the bounds make
 * it impossible, for ⊂p, ⊂a, ⊂t and ⊂n; ⊂m and ⊂s are a ValueError. */
static int below(trial *t, PyObject *b, long code, PyObject **out) {
    if (need_tuple(b, "hfe"))
        return -1;
    Py_ssize_t nb = PyTuple_GET_SIZE(b), n = 0;
    i64 lo = t->lo, hi = t->hi, first, last, y, k;
    if (code == REL_T && lo >= nb)
        return 1;
    u64 z = next(&t->z);
    if (item_at(b, 0, &first))
        return -1;
    if (code == REL_T)
        k = lo + (i64)scale(z, (u64)((hi < nb ? hi : nb - 1) - lo + 1));
    else if (code == REL_P || code == REL_A || code == REL_N)
        k = lo + (i64)scale(z, (u64)(hi - lo + 1));
    else {
        PyErr_Format(PyExc_ValueError, "no dominated construction for relation code %ld", code);
        return -1;
    }
    if (item_at(b, nb - 1, &last))
        return -1;
    scratch s;
    deg *v = grab(&s, (Py_ssize_t)k);
    int r = -1;
    if (!v)
        return -1;
    if (code == REL_T) /* under a prefix of b, position by position */
        for (; n < k; n++) {
            if (item_at(b, n, &y))
                goto done;
            v[n] = (deg){(i64)scale(next(&t->z), (u64)y + 1), NULL};
        }
    else if (code == REL_A)
        v[n++] = (deg){(i64)scale(next(&t->z), (u64)last + 1), NULL};
    for (; n < k; n++) /* the rest: under b's last degree (⊂n) or its first */
        v[n] = (deg){(i64)scale(next(&t->z), (u64)(code == REL_N ? last : first) + 1), NULL};
    r = packed(v, n, out);
done:
    drop(&s);
    return r;
}

/* The move's slots move[2] ⊂code move[3] ⊂code ...: per position a base
 * hfe, then one step up per further slot; for ⊂m, free hfes stably sorted
 * by mean. */
static int ladder(trial *t, PyObject *move, long code) {
    Py_ssize_t steps = PyTuple_GET_SIZE(move) - 3, width = steps + 1, p, j;
    i64 lift = code == REL_T, cap = t->hi - lift * steps;
    if (code != REL_M && t->lo > cap)
        return 1;
    PyObject **cols = PyMem_New(PyObject *, width > 0 ? width : 1), *h = NULL;
    int r = -1;
    if (!cols) {
        PyErr_NoMemory();
        return -1;
    }
    for (j = 0; j < width; j++)
        cols[j] = NULL;
    for (j = 0; j < width; j++)
        if (!(cols[j] = PyTuple_New(t->size)))
            goto done;
    for (p = 0; p < t->size; p++) {
        if (code == REL_M) {
            for (j = 0; j < width; j++)
                if (!(h = draw(&t->z, t->den, t->lo, t->hi)))
                    goto done;
                else
                    PyTuple_SET_ITEM(cols[j], p, h);
            for (Py_ssize_t end = width - 1; end > 0; end--)
                for (j = 0; j < end; j++) {
                    PyObject *a = PyTuple_GET_ITEM(cols[j], p), *b = PyTuple_GET_ITEM(cols[j + 1], p);
                    int gt;
                    if (mean_gt(a, b, &gt))
                        goto done;
                    if (gt) {
                        PyTuple_SET_ITEM(cols[j], p, b);
                        PyTuple_SET_ITEM(cols[j + 1], p, a);
                    }
                }
            continue;
        }
        if (!(h = draw(&t->z, t->den, t->lo, cap)))
            goto done;
        if (width < 1) {
            Py_DECREF(h);
            continue;
        }
        PyTuple_SET_ITEM(cols[0], p, h);
        for (j = 1; j < width; j++) {
            int got = above(t, h, code, cap + lift * j, &h);
            if (got) {
                r = got;
                goto done;
            }
            PyTuple_SET_ITEM(cols[j], p, h);
        }
    }
    for (j = 0; j < width; j++) {
        PyObject **at = slot(t, move, 2 + j);
        if (!at)
            goto done;
        Py_INCREF(cols[j]);
        Py_SETREF(*at, cols[j]);
    }
    r = 0;
done:
    for (j = 0; j < width; j++)
        Py_XDECREF(cols[j]);
    PyMem_Free(cols);
    return r;
}

/* The set under a family and members above it: every one, or one chosen
 * among a free family or among members longer than the set. */
static int family_above(trial *t, PyObject *move) {
    long code, members;
    PyObject **at_a, **at_f, *A = NULL, *fam = NULL, *h;
    i64 cap;
    int r = -1;
    if (field(move, 1, &code) || !(at_a = slot(t, move, 2)) || !(at_f = slot(t, move, 3))
        || field(move, 4, &members))
        return -1;
    cap = code == REL_T ? t->hi - 1 : t->hi;
    if (t->lo > cap)
        return 1;
    if (!(A = draw_hfes(&t->z, t->size, t->den, t->lo, cap)))
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(A), count, first = 0, last;
    if (members == SOME) {
        PyObject *free = family(t);
        fam = free ? PySequence_List(free) : NULL;
        Py_XDECREF(free);
    } else {
        fam = PyList_New(randint(t, t->flo, t->fhi));
        for (Py_ssize_t j = 0; fam && members != ALL && j < PyList_GET_SIZE(fam); j++) {
            PyObject *H = PyTuple_New(n);
            for (Py_ssize_t p = 0; H && p < n; p++)
                H = put(H, p, draw(&t->z, t->den, PyTuple_GET_SIZE(PyTuple_GET_ITEM(A, p)) + 1, t->hi));
            if (!H)
                goto done;
            PyList_SET_ITEM(fam, j, H);
        }
    }
    if (!fam)
        goto done;
    count = PyList_GET_SIZE(fam);
    last = count;
    if (members != ALL) {
        first = (Py_ssize_t)scale(next(&t->z), (u64)count);
        last = first + 1;
    }
    for (Py_ssize_t j = first; j < last; j++) {
        PyObject *H = PyTuple_New(n);
        for (Py_ssize_t p = 0; H && p < n; p++) {
            int got = above(t, PyTuple_GET_ITEM(A, p), code, t->hi, &h);
            if (got) {
                Py_DECREF(H);
                r = got;
                goto done;
            }
            PyTuple_SET_ITEM(H, p, h);
        }
        if (!H || PyList_SetItem(fam, j, H))
            goto done;
    }
    Py_SETREF(*at_a, Py_NewRef(A));
    r = store(at_f, PyList_AsTuple(fam));
done:
    Py_XDECREF(A);
    Py_XDECREF(fam);
    return r;
}

/* small ⊏ big: big drawn free, small the first k of a partial Fisher-Yates
 * shuffle of its members, 1 <= k <= len(big). */
static int subfamily(trial *t, PyObject *move) {
    PyObject **at_small = slot(t, move, 1), **at_big = at_small ? slot(t, move, 2) : NULL, *big, *small;
    if (!at_big || !(big = family(t)))
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(big), *idx = PyMem_New(Py_ssize_t, n), j, k;
    if (!idx) {
        Py_DECREF(big);
        PyErr_NoMemory();
        return -1;
    }
    for (j = 0; j < n; j++)
        idx[j] = j;
    for (j = n - 1; j > 0; j--) {
        Py_ssize_t r = (Py_ssize_t)scale(next(&t->z), (u64)j + 1), x = idx[j];
        idx[j] = idx[r];
        idx[r] = x;
    }
    k = 1 + (Py_ssize_t)scale(next(&t->z), (u64)n);
    small = PyTuple_New(k);
    for (j = 0; small && j < k; j++)
        small = put(small, j, Py_NewRef(PyTuple_GET_ITEM(big, idx[j])));
    PyMem_Free(idx);
    if (!small) {
        Py_DECREF(big);
        return -1;
    }
    Py_SETREF(*at_small, small);
    Py_SETREF(*at_big, big);
    return 0;
}

/* Runs the moves of `plan` in order. */
static int run(trial *t, PyObject *plan) {
    if (need_tuple(plan, "plan") || Py_EnterRecursiveCall(" in draw_plan"))
        return -1;
    int r = 0;
    for (Py_ssize_t m = 0; !r && m < PyTuple_GET_SIZE(plan); m++) {
        PyObject *move = PyTuple_GET_ITEM(plan, m), **at, **other;
        long op, code;
        if (field(move, 0, &op)) {
            r = -1;
            break;
        }
        switch (op) {
        case SET:
        case FAMILY:
            r = !(at = slot(t, move, 1))
                    ? -1
                    : store(at, op == SET ? draw_hfes(&t->z, t->size, t->den, t->lo, t->hi) : family(t));
            break;
        case LADDER:
            r = field(move, 1, &code) ? -1 : ladder(t, move, code);
            break;
        case COPY:
            if (!(at = slot(t, move, 1)) || !(other = slot(t, move, 2)))
                r = -1;
            else
                Py_SETREF(*at, Py_NewRef(*other));
            break;
        case COINCIDE: { /* one degree c per position, repeated in both */
            Py_ssize_t size = t->size;
            PyObject *pa = NULL, *pb = NULL;
            if (!(at = slot(t, move, 1)) || !(other = slot(t, move, 2)) || !(pa = PyTuple_New(size))
                || !(pb = PyTuple_New(size)))
                r = -1;
            for (Py_ssize_t p = 0; !r && p < size; p++) {
                PyObject *c = Py_BuildValue("(L)", (long long)scale(next(&t->z), (u64)t->den + 1)), *ca, *cb;
                i64 ka = randint(t, t->lo, t->hi), kb = randint(t, t->lo, t->hi);
                ca = c ? PySequence_Repeat(c, ka) : NULL;
                cb = ca ? PySequence_Repeat(c, kb) : NULL;
                Py_XDECREF(c);
                if (!cb) {
                    Py_XDECREF(ca);
                    r = -1;
                } else {
                    PyTuple_SET_ITEM(pa, p, ca);
                    PyTuple_SET_ITEM(pb, p, cb);
                }
            }
            if (r) {
                Py_XDECREF(pa);
                Py_XDECREF(pb);
            } else {
                Py_SETREF(*at, pa);
                Py_SETREF(*other, pb);
            }
            break;
        }
        case ABOVE:
            r = family_above(t, move);
            break;
        case BELOW: { /* the term's value, then below it per position */
            PyObject *value = NULL, *H = NULL, *h;
            if (field(move, 1, &code) || !(at = slot(t, move, 2)) || PyTuple_GET_SIZE(move) < 4
                || !(value = eval_term(PyTuple_GET_ITEM(move, 3), t->slots, t->nslots, t->one))
                || need_tuple(value, "hfs")
                || !(H = PyTuple_New(PyTuple_GET_SIZE(value))))
                r = -1;
            for (Py_ssize_t p = 0; H && !r && p < PyTuple_GET_SIZE(value); p++)
                if (!(r = below(t, PyTuple_GET_ITEM(value, p), code, &h)))
                    PyTuple_SET_ITEM(H, p, h);
            if (!r)
                Py_SETREF(*at, H);
            else
                Py_XDECREF(H);
            Py_XDECREF(value);
            if (r == -1 && !PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "plan move too short");
            break;
        }
        case SUBFAMILY:
            r = subfamily(t, move);
            break;
        case CHOICE: { /* one plan among the move's */
            Py_ssize_t n = PyTuple_GET_SIZE(move);
            Py_ssize_t pick = 1 + (Py_ssize_t)scale(next(&t->z), (u64)n - 1);
            if (pick >= n) {
                PyErr_SetString(PyExc_IndexError, "plan move too short");
                r = -1;
            } else
                r = run(t, PyTuple_GET_ITEM(move, pick));
            break;
        }
        default:
            PyErr_Format(PyExc_ValueError, "unknown plan move %ld", op);
            r = -1;
        }
    }
    Py_LeaveRecursiveCall();
    return r;
}

/* Trial `index` of a law: (size, binding or None), the trial's stream
 * seeded with the FNV-1a state `prefix` extended by the index's 8
 * little-endian bytes. The binding is the tuple of the slots. t holds the
 * bounds, and its slots hold None on entry and on return. */
static PyObject *one_trial(trial *t, PyObject *plan, const i64 *b, u64 prefix, u64 index) {
    for (int i = 0; i < 8; i++)
        prefix = (prefix ^ ((index >> (8 * i)) & 0xFF)) * FNV_PRIME;
    t->z = prefix;
    t->size = randint(t, b[1], b[2]);
    int r = run(t, plan);
    PyObject *binding = r ? NULL : PyTuple_New(t->nslots), *out = NULL;
    for (Py_ssize_t j = 0; j < t->nslots; j++) {
        PyObject *value = t->slots[j];
        t->slots[j] = Py_NewRef(Py_None);
        if (binding)
            PyTuple_SET_ITEM(binding, j, value);
        else
            Py_DECREF(value);
    }
    if (r == 1)
        binding = Py_NewRef(Py_None);
    if (binding)
        out = Py_BuildValue("(LN)", (long long)t->size, binding);
    return out;
}

#define OUT_OF_RANGE "trial index out of range 0..2**64 - 1"
#define DOMAIN "bounds need den >= 1 and 1 <= lo <= hi for the size, cardinality and family ranges"

/* An int that is not a bool, as width, first and count must be. */
static int plain_int(PyObject *o) { return PyLong_Check(o) && !PyBool_Check(o); }

/* draw_plan(plan, width, bounds, prefix, first, count) -> the list of
 * (size, binding or None) of trials first .. first + count - 1 */
FASTCALL(draw_plan) {
    i64 b[7];
    if (arity("draw_plan", nargs, 6) || need_tuple(args[2], "bounds"))
        return NULL;
    if (PyTuple_GET_SIZE(args[2]) != 7)
        return PyErr_Format(PyExc_ValueError, "bounds must hold 7 values");
    for (int i = 0; i < 7; i++)
        if (as_i64(PyTuple_GET_ITEM(args[2], i), &b[i]))
            return NULL;
    if (b[0] < 1 || b[1] < 1 || b[1] > b[2] || b[3] < 1 || b[3] > b[4] || b[5] < 1 || b[5] > b[6])
        return PyErr_Format(PyExc_ValueError, DOMAIN);
    u64 prefix = PyLong_AsUnsignedLongLongMask(args[3]);
    if (prefix == (u64)-1 && PyErr_Occurred())
        return NULL;
    if (!plain_int(args[1]) || !plain_int(args[4]) || !plain_int(args[5]))
        return PyErr_Format(PyExc_TypeError, "width, first and count must be ints, not bools");
    Py_ssize_t width = PyLong_AsSsize_t(args[1]);
    if (width == -1 && PyErr_Occurred())
        return NULL;
    if (width < 0)
        return PyErr_Format(PyExc_ValueError, "width must be non-negative");
    u64 first = PyLong_AsUnsignedLongLong(args[4]);
    if (first == (u64)-1 && PyErr_Occurred()) { /* an int, so outside 0..2**64 - 1 */
        PyErr_Clear();
        return PyErr_Format(PyExc_OverflowError, OUT_OF_RANGE);
    }
    int past; /* the sign of a count outside long long, which then reads -1 */
    long long count = PyLong_AsLongLongAndOverflow(args[5], &past);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    if (past < 0 || (!past && count < 0))
        return PyErr_Format(PyExc_ValueError, "count must be non-negative");
    if (past > 0 || (count > 0 && (u64)(count - 1) > ~first))
        return PyErr_Format(PyExc_OverflowError, OUT_OF_RANGE);
    trial t = {.den = b[0], .lo = b[3], .hi = b[4], .flo = b[5], .fhi = b[6], .nslots = width};
    if (!(t.one = PyLong_FromLongLong(b[0])))
        return NULL;
    t.slots = PyMem_New(PyObject *, width > 0 ? width : 1);
    if (!t.slots) {
        Py_DECREF(t.one);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t j = 0; j < width; j++)
        t.slots[j] = Py_NewRef(Py_None);
    PyObject *out = PyList_New((Py_ssize_t)count), *one;
    for (Py_ssize_t k = 0; out && k < count; k++)
        if ((one = one_trial(&t, args[0], b, prefix, first + (u64)k)))
            PyList_SET_ITEM(out, k, one);
        else
            Py_CLEAR(out);
    for (Py_ssize_t j = 0; j < width; j++)
        Py_DECREF(t.slots[j]);
    PyMem_Free(t.slots);
    Py_DECREF(t.one);
    return out;
}

/* --- module --- */

#define FAST(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    FAST(u_rel, "True iff a ⊂code b at every universe position; REL_SOT is ⊂s or ⊂t."),
    FAST(term, "The value of a postfix term program over a tuple of slots."),
    FAST(draw_plan, "Trials first .. first + count - 1 of a law: a list of (universe size, binding or None)."),
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
    static const char *rel_names[] = {"REL_P", "REL_A", "REL_M", "REL_S", "REL_T", "REL_N", "REL_SOT"};
    PyObject *m = PyModule_Create(&kernel_module);
    if (!m)
        return NULL;
    int err = PyModule_AddStringConstant(m, "IMPLEMENTATION", "compiled");
    for (int i = REL_P; !err && i <= REL_SOT; i++)
        err = PyModule_AddIntConstant(m, rel_names[i], i);
    if (err)
        Py_CLEAR(m);
    return m;
}
