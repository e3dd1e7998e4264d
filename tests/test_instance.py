"""Instance model, weight clamping, generator, and file I/O."""

import hashlib
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcim.demo import demo_instance
from lcim.instance import (
    Instance,
    NodeView,
    ParseError,
    _watts_strogatz_edges,
    generate_small_world,
    load,
    loads,
    make_instance,
    save,
)

from conftest import random_instance


def tiny():
    return make_instance(
        2, {(1, 2): 3, (2, 1): 4}, {1: 5, 2: 2}, b=1
    )


class TestInstanceModel:
    def test_accessors(self):
        inst = tiny()
        assert inst.n == 2
        assert inst.m == 2
        assert inst.weight(1, 2) == 2  # 3, clamped to h_2 = 2
        assert inst.weight(2, 1) == 4
        assert inst.threshold(1) == 5
        assert inst.neighbors(1) == (2,)
        assert inst.edges() == [(1, 2)]

    def test_node_view(self):
        inst = demo_instance()
        view = inst.node_view(2)
        assert view.h == 10
        assert view.neighbors == (1, 3, 5)
        assert view.weights == (3, 4, 5)
        assert view.weight_of(3) == 4
        assert view.degree == 3
        with pytest.raises(KeyError):
            view.weight_of(4)
        assert view.var_names == {
            k: inst.var_names[k] for k in (view.xcol, *view.ycols, view.zcol)
        }

    def test_bare_view_layout(self):
        # a view built alone has the single-node layout x, y_1..y_v, z
        view = NodeView(node=7, h=4, d=((2, 3), (5, 1)))
        assert (view.xcol, view.ycols, view.zcol) == (0, (1, 2), 3)
        assert view.var_names == {0: "x[7]", 1: "y[2,7]", 2: "y[5,7]", 3: "z[7]"}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), max_size=7), st.integers(1, 60))
    def test_subset_sums_and_sources(self, weights, h):
        view = NodeView(node=0, h=h, d=tuple(enumerate(weights, start=1)))
        expect = {0}
        for w in weights:
            expect |= {s + w for s in expect if s + w < h}
        sums = view.subset_sums.tolist()
        assert sums == sorted(expect)
        sources = view.sum_sources
        assert sources.shape == (len(weights), len(sums) + 1)
        for k, w in enumerate(weights):
            assert sources[k, -1] == -1
            for c, s in enumerate(sums):
                assert sources[k, c] == (sums.index(s - w) if s - w in expect else -1)

    def test_node_id_out_of_range(self):
        inst = demo_instance()
        for i in (0, inst.n + 1):
            with pytest.raises(KeyError):
                inst.node_view(i)
            with pytest.raises(KeyError):
                inst.neighbors(i)

    def test_views_not_an_init_argument(self):
        with pytest.raises(TypeError):
            Instance(n=2, arcs=tiny().arcs, h=(5, 2), b=1, _views=("junk",))

    def test_with_b(self):
        inst = tiny().with_b(2)
        assert inst.b == 2

    def test_asymmetric_arcs_rejected(self):
        with pytest.raises(ValueError, match="asymmetric arc set"):
            make_instance(2, {(1, 2): 3}, {1: 5, 2: 2}, b=1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Instance(n=1, arcs=(((1, 1), 2),), h=(3,), b=1)

    def test_bad_b_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tiny().with_b(3)
        with pytest.raises(ValueError, match="outside"):
            tiny().with_b(0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="nonpositive or fractional weight"):
            make_instance(2, {(1, 2): 0, (2, 1): 1}, {1: 5, 2: 2}, b=1)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            make_instance(2, {(1, 2): 3, (2, 1): 1}, {1: 0, 2: 2}, b=1)


class TestClamping:
    """Every weight is clamped to its receiver's threshold on construction."""

    def test_clamps_to_threshold(self):
        inst = make_instance(
            2, {(1, 2): 9, (2, 1): 1}, {1: 7, 2: 5}, b=2
        )
        assert inst.weight(1, 2) == 5
        assert inst.weight(2, 1) == 1
        assert inst.arcs == (((1, 2), 5), ((2, 1), 1))
        assert inst.node_view(2).d == ((1, 5),)

    def test_rebuild_is_equal(self):
        inst = make_instance(
            2, {(1, 2): 9, (2, 1): 1}, {1: 7, 2: 5}, b=2
        )
        assert Instance(inst.n, inst.arcs, inst.h, inst.b) == inst
        assert inst == make_instance(2, {(1, 2): 5, (2, 1): 1}, {1: 7, 2: 5}, b=2)

    def test_pair_clamped_independently(self):
        inst = make_instance(
            2, {(1, 2): 10, (2, 1): 2}, {1: 6, 2: 3}, b=1
        )
        assert inst.weight(1, 2) == 3
        assert inst.weight(2, 1) == 2

    def test_activation_cost_matches_raw_weights(self):
        # clamping never changes what an activation order costs
        from lcim.oracle import activation_cost

        rng = np.random.default_rng(11)
        for _ in range(20):
            inst = random_instance(rng)
            raw = {arc: w + int(rng.integers(0, 8)) for arc, w in inst.arcs}
            h = {i: inst.threshold(i) for i in range(1, inst.n + 1)}
            clamped = make_instance(inst.n, raw, h, inst.b)
            for _ in range(5):
                order = [int(v) for v in rng.permutation(np.arange(1, inst.n + 1))]
                order = order[: int(rng.integers(1, inst.n + 1))]
                cost = sum(
                    max(0, h[v] - sum(raw.get((u, v), 0) for u in order[:k]))
                    for k, v in enumerate(order)
                )
                assert activation_cost(clamped, order) == cost


class TestGenerator:
    def test_arc_counts(self):
        inst = generate_small_world(50, 4, 0.1, 1.0, seed=7)
        assert inst.n == 50 and inst.m == 200
        inst = generate_small_world(100, 8, 0.3, 0.5, seed=7)
        assert inst.n == 100 and inst.m == 800

    def test_deterministic(self):
        a = generate_small_world(30, 4, 0.2, 0.5, seed=3)
        b = generate_small_world(30, 4, 0.2, 0.5, seed=3)
        assert a == b
        c = generate_small_world(30, 4, 0.2, 0.5, seed=4)
        assert a != c

    def test_clamped_and_b(self):
        inst = generate_small_world(40, 4, 0.1, 0.25, seed=1)
        assert all(w <= inst.threshold(j) for (_, j), w in inst.arcs)
        assert inst.b == 10  # ceil(0.25 * 40)

    def test_weights_in_range(self):
        inst = generate_small_world(30, 4, 0.5, 1.0, seed=9)
        for _, w in inst.arcs:
            assert 1 <= w <= 10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_small_world(10, 3, 0.1, 0.5, seed=0)  # odd degree
        for v in (0, -2):
            with pytest.raises(ValueError, match="mean degree"):
                generate_small_world(10, v, 0.1, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_small_world(10, 4, 1.5, 0.5, seed=0)
        with pytest.raises(ValueError):
            generate_small_world(10, 4, 0.1, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_small_world(3, 2, 0.1, 0.5, seed=0)

    # sha256 of the `save` output of the benchmark's instances, computed with
    # networkx's generator: the desk-cb points (n=50, seed 42) and the
    # small-oracle graphs (n=8, seeds 42 and 44)
    FINGERPRINTS = {
        (50, 0.1, 0.1, 42): "36e41e1514e7022424c1a553070d2c10031026d58a6671ab54416e734abc7399",
        (50, 0.1, 0.25, 42): "f8979777a90d9e2ea93f27538a8f9afc4ad907fb7d7c3686a34aa0d72ae228dc",
        (50, 0.3, 0.1, 42): "caa453adad6f0af36ad4baa11f275ba69d820060b296963f6aceb17a40a6bbef",
        (8, 0.1, 0.5, 42): "9e68f85008ca002327c739bb5ebeabee28aff89e971fe3fbd081b7374349022d",
        (8, 0.1, 1.0, 42): "64517c6217ab4d469cc04acf2beb2adedcf3b240e94fa79fc13a70b1b9442983",
        (8, 0.3, 0.5, 42): "3836117606a26793354578aec466588d2cbf5179bb2b9d97d5e107ef5628c948",
        (8, 0.3, 1.0, 42): "db3b9cb3c13eca532a1a9fafdbfdfde5057d8e4c643b18f708165a11884097ea",
        (8, 0.1, 0.5, 44): "54d695e7fddb756f50808dc497ab8a1fed211e1dc4dfc34115de344583b0a3ff",
        (8, 0.1, 1.0, 44): "c97a88a8286a4d4ab0bf726a08f5ceb8b9d9d5dad5ac96667e413a054ccd89f7",
        (8, 0.3, 0.5, 44): "e2603625fbfb6fac39c3b762511ae6f58e0141b5f9da4d28be684c1d0cffb1f8",
        (8, 0.3, 1.0, 44): "379f0493c37fdbe40ca093a815f1d79f36a46361fd6a64c9df1c23975227e2a1",
    }

    @pytest.mark.parametrize("n, q, a, seed", sorted(FINGERPRINTS))
    def test_fingerprint(self, tmp_path, n, q, a, seed):
        path = tmp_path / "inst.lcim"
        save(generate_small_world(n, 4, q, a, seed=seed), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.FINGERPRINTS[n, q, a, seed]

    def test_rewiring_matches_networkx(self):
        """The in-house rewiring gives networkx's Watts-Strogatz edges and
        leaves the Generator where networkx leaves it, on every (n, v, q,
        seed) of a 520-point grid; v = n - 1 hits the skipped rewiring of a
        node joined to all others."""
        import networkx as nx

        for n in (4, 5, 7, 10, 23):
            for v in range(0, n, 2):
                for q in (0.0, 0.1, 0.5, 0.9, 1.0):
                    for seed in range(4):
                        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                        edges = _watts_strogatz_edges(n, v, q, ours)
                        g = nx.watts_strogatz_graph(n, v, q, seed=theirs)
                        assert edges == sorted(tuple(sorted(e)) for e in g.edges()), (n, v, q, seed)
                        assert ours.random() == theirs.random(), (n, v, q, seed)


class TestIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random thresholds may lack slack
            for _ in range(10):
                inst = random_instance(rng)
                path = tmp_path / "inst.lcim"
                save(inst, path)
                assert load(path) == inst

    def test_demo_fixture(self):
        inst = demo_instance()
        assert inst.n == 5 and inst.m == 10 and inst.b == 3
        assert inst.h == (18, 10, 7, 5, 5)
        assert inst.weight(2, 3) == 6

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nlcim 1\n2 2 1\n1 5\n2 2\n# more\n1 2 3\n2 1 4\n"
        assert loads(text) == tiny()

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="bad magic") as exc:
            loads("lcim 2\n1 0 1\n1 5\n")
        assert exc.value.lineno == 1

    def test_truncated_file(self):
        with pytest.raises(ParseError, match="unexpected end of file"):
            loads("lcim 1\n2 2 1\n1 5\n")

    def test_trailing_content(self):
        text = "lcim 1\n2 2 1\n1 5\n2 2\n1 2 3\n2 1 4\n9 9 9\n"
        with pytest.raises(ParseError, match="trailing content"):
            loads(text)

    def test_asymmetric_file(self):
        text = "lcim 1\n2 1 1\n1 5\n2 2\n1 2 3\n"
        with pytest.raises(ParseError, match="asymmetric"):
            loads(text)

    def test_negative_header_counts(self):
        for header in ("1 -5 1", "0 0 1", "-1 0 1"):
            with pytest.raises(ParseError, match="n >= 1 and m >= 0") as exc:
                loads(f"# header on line 3\nlcim 1\n{header}\n1 1\n")
            assert exc.value.lineno == 3

    def test_b_outside_range_at_header_line(self):
        with pytest.raises(ParseError, match=r"b=5 outside \[1, n=1\]") as exc:
            loads("lcim 1\n1 0 5\n1 1\n")
        assert exc.value.lineno == 2

    def test_threshold_node_outside_range_at_its_line(self):
        with pytest.raises(ParseError, match="node 7 outside") as exc:
            loads("lcim 1\n2 0 1\n1 1\n7 3\n")
        assert exc.value.lineno == 4

    @pytest.mark.parametrize("text, reason, lineno", [
        ("lcim 1\n2 2 1\n1 5\n2 0\n1 2 3\n2 1 4\n",
         "node 2 has nonpositive or fractional threshold 0", 4),
        ("lcim 1\n2 2 1\n1 5\n2 2\n1 9 3\n9 1 4\n", "arc (1,9) references unknown node", 5),
        ("lcim 1\n2 3 1\n1 5\n2 2\n1 2 3\n1 1 2\n2 1 4\n", "self-loop at node 1", 6),
        ("lcim 1\n2 2 1\n1 5\n2 2\n1 2 0\n2 1 4\n",
         "arc (1,2) has nonpositive or fractional weight 0", 5),
        ("lcim 1\n3 3 1\n1 5\n2 2\n3 2\n1 2 3\n2 3 1\n2 1 4\n",
         "asymmetric arc set: (2,3) present without (3,2)", 7),
    ], ids=("threshold", "unknown-node", "self-loop", "weight", "no-reverse"))
    def test_instance_rule_at_its_line(self, text, reason, lineno):
        with pytest.raises(ParseError) as exc:
            loads(text)
        assert (exc.value.lineno, exc.value.reason) == (lineno, reason)

    @pytest.mark.parametrize("text, lineno, reason", [
        ("", 0, "empty file"),
        ("# only a comment\n\n", 0, "empty file"),
        ("# magic on line 2\nlcim 1\n", 2, "missing header line"),
        ("lcim 1\n2 2\n", 2, "header must be '<n> <m> <b>'"),
        ("lcim 1\n2 x 1\n", 2, "header fields must be integers"),
        ("lcim 1\n2 2 1\n1 5 6\n", 3, "threshold line must be '<node> <h>'"),
        ("lcim 1\n2 2 1\n1 5\n2 two\n", 4, "threshold fields must be integers"),
        ("lcim 1\n2 2 1\n1 5\n", 3, "unexpected end of file in threshold block"),
        ("lcim 1\n2 2 1\n1 5\n1 2\n", 4, "duplicate threshold for node 1"),
        ("lcim 1\n2 2 1\n1 5\n2 2\n1 2\n", 5, "arc line must be '<i> <j> <d>'"),
        ("lcim 1\n2 2 1\n1 5\n2 2\n1 2 3\n2 1 4.0\n", 6, "arc fields must be integers"),
        ("lcim 1\n2 2 1\n1 5\n2 2\n1 2 3\n# end\n", 5, "unexpected end of file in arc block"),
        ("lcim 1\n2 2 1\n1 5\n2 2\n1 2 3\n1 2 4\n", 6, "duplicate arc (1,2)"),
    ], ids=("empty", "comments-only", "no-header", "header-fields", "header-int",
            "threshold-fields", "threshold-int", "threshold-eof", "threshold-duplicate",
            "arc-fields", "arc-int", "arc-eof", "arc-duplicate"))
    def test_malformed_line_reported(self, text, lineno, reason):
        with pytest.raises(ParseError) as exc:
            loads(text)
        assert (exc.value.lineno, exc.value.reason) == (lineno, reason)

    def test_threshold_of_1e15_or_more_rejected(self):
        # h_i is an LP coefficient, and HiGHS takes none of 10^15 or more
        for h in (2 * 10**15, 10**20):
            with pytest.raises(ParseError, match=f"node 2 has threshold {h}, not below") as exc:
                loads(f"lcim 1\n2 2 1\n1 5\n2 {h}\n1 2 3\n2 1 4\n")
            assert exc.value.lineno == 4
            with pytest.raises(ValueError, match="not below 10\\^15"):
                make_instance(2, {(1, 2): 3, (2, 1): 4}, {1: 5, 2: h}, b=1)
        assert make_instance(1, {}, {1: 10**15 - 1}, b=1).h == (10**15 - 1,)

    def test_non_integer_field(self):
        text = "lcim 1\n2 2 1\n1 5.5\n2 2\n1 2 3\n2 1 4\n"
        with pytest.raises(ParseError, match="integers") as exc:
            loads(text)
        assert exc.value.lineno == 3

    def test_slack_warning(self):
        # a degree-2 node whose weights do not exceed its threshold warns
        text = (
            "lcim 1\n3 4 1\n1 9\n2 1\n3 1\n"
            "1 2 1\n2 1 4\n1 3 1\n3 1 5\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loads(text)
        assert any("node 1" in str(w.message) for w in caught)


@st.composite
def instances(draw, max_n=6):
    """Any valid instance: symmetric arc set, positive weights, any b."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    arcs = {}
    for i, j in edges:
        arcs[(i, j)] = draw(st.integers(1, 20))
        arcs[(j, i)] = draw(st.integers(1, 20))
    thresholds = {i: draw(st.integers(1, 30)) for i in range(1, n + 1)}
    return make_instance(n, arcs, thresholds, draw(st.integers(1, n)))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(instances())
    def test_save_loads_round_trip(self, inst):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.lcim")
            save(inst, path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random thresholds may lack slack
            assert loads(text) == inst

    @settings(max_examples=50, deadline=None)
    @given(instances())
    def test_clamped_on_construction(self, inst):
        assert all(w <= inst.threshold(j) for (_, j), w in inst.arcs)
        assert Instance(inst.n, inst.arcs, inst.h, inst.b) == inst

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_node_views_match_arc_scan(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_max=8)
        # unsorted arcs, and halved thresholds that clamp some weights
        lowered = Instance(
            n=inst.n,
            arcs=inst.arcs[::-1],
            h=tuple(1 + hi // 2 for hi in inst.h),
            b=inst.b,
        )
        b = int(rng.integers(1, inst.n + 1))
        for case, given in ((inst, inst.arcs), (inst.with_b(b), inst.arcs),
                            (lowered, inst.arcs[::-1])):
            # the given arcs, in the given order, each weight clamped to h_l
            arcs = tuple(((j, l), min(w, case.threshold(l))) for (j, l), w in given)
            assert case.arcs == arcs
            # columns: x_i at i - 1, the k-th arc's y at n + k, z_i at n + m + i - 1
            n, m = case.n, len(arcs)
            assert case.ycol == {arc: n + k for k, (arc, _) in enumerate(arcs)}
            for i in range(1, n + 1):
                ins = sorted(
                    (j, w, n + k) for k, ((j, l), w) in enumerate(arcs) if l == i
                )
                expect = NodeView(
                    node=i,
                    h=case.threshold(i),
                    d=tuple((j, w) for j, w, _ in ins),
                    xcol=i - 1,
                    ycols=tuple(k for _, _, k in ins),
                    zcol=n + m + i - 1,
                )
                assert case.node_view(i) == expect
                assert (case.xcol(i), case.zcol(i)) == (expect.xcol, expect.zcol)
                assert case.neighbors(i) == case.node_view(i).neighbors
