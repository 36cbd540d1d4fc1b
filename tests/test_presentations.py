import pytest

from markedgroups.hnn import g_oracle
from markedgroups.marked import builtin_group
from markedgroups.presentations import (
    AlphabetConflictError,
    InvalidConjugatorError,
    Presentation,
    builtin,
    conjugation_substitution,
    hnn_presentation,
    make_presentation,
    parse_presentation,
    relator_class,
    same_relator_set,
    serialize_presentation,
    zero_sum_coordinates,
)
from markedgroups.words import (
    Alphabet,
    Word,
    WordSyntaxError,
    gen,
    parse_word,
    render_word,
    substitute,
)

# The relators of the built-ins as they were listed by hand before ZxB and E
# were built by hnn_presentation: an independent reference for both.
_B_TEXTS = [
    "a a", "a^-1 b^-1 a^-1 b a b^-1 a b", "b^-1 c^-1 b c",
    "c^-1 a c b^-1 a^-1 b a^-1",
]
_ZXB_TEXTS = _B_TEXTS + ["h^-1 a^-1 h a", "h^-1 b^-1 h b", "h^-1 c^-1 h c"]
_G_TEXTS = _ZXB_TEXTS + ["s^-1 h h s a^-1 h^-1"]
_E_TEXTS = _G_TEXTS + ["t^-1 h h t h^-1 h^-1"]  # (h^2)^t = h^2


def _reference_e():
    alphabet = Alphabet(("a", "b", "c", "h", "s", "t"))
    return Presentation(
        "E", alphabet, tuple(parse_word(text, alphabet) for text in _E_TEXTS)
    )


def test_builtin_shapes():
    b = builtin("B")
    assert b.alphabet.names == ("a", "b", "c") and len(b.relators) == 4
    zxb = builtin("ZxB")
    assert zxb.alphabet.names == ("a", "b", "c", "h") and len(zxb.relators) == 7
    g = builtin("G")
    assert g.alphabet.names == ("a", "b", "c", "h", "s") and len(g.relators) == 8
    e = builtin("E")
    assert e.alphabet.names == ("a", "b", "c", "h", "s", "t")
    assert len(e.relators) == 9
    with pytest.raises(KeyError):
        builtin("F")


def test_builtin_relators_trivial_under_oracles():
    # cross-module consistency: every built-in relator dies in its group
    for name in ("B", "ZxB", "G", "E"):
        oracle = builtin_group(name).oracle
        for rel in builtin(name).relators:
            assert oracle.is_trivial(rel), render_word(rel)


def test_builtin_relators_match_reference():
    for name, texts in (("B", _B_TEXTS), ("ZxB", _ZXB_TEXTS), ("G", _G_TEXTS)):
        assert [render_word(r) for r in builtin(name).relators] == texts, name
    e = builtin("E")
    assert same_relator_set(e, _reference_e())
    # [t, h^2], the same relator as (h^2)^t = h^2 up to rotation and inversion
    assert render_word(e.relators[-1]) == "t^-1 h^-1 h^-1 t h h"


def test_same_relator_set_matches_relator_for_relator():
    # every relator lies in B's rotation/inversion closure and the count is
    # B's, but a^2 is there twice and B's last two relators are missing
    not_b = parse_presentation(
        "gens a b c\nrel a a\nrel a^-1 a^-1\nrel [b, c]\nrel [c, b]\n"
    )
    assert not same_relator_set(not_b, builtin("B"))
    # E's relators permuted, each rotated and every other one inverted
    e = builtin("E")
    moved = []
    for k, rel in enumerate(reversed(e.relators)):
        cut = k % len(rel)
        rotated = Word(e.alphabet, rel.letters[cut:] + rel.letters[:cut])
        moved.append(~rotated if k % 2 else rotated)
    copy = Presentation("E'", e.alphabet, tuple(moved))
    assert [r.letters for r in copy.relators] != [r.letters for r in e.relators]
    assert same_relator_set(copy, e) and same_relator_set(e, copy)
    assert not same_relator_set(copy, builtin("G"))


def test_relator_class():
    alphabet = Alphabet(("a", "b"))
    w = parse_word("a b a^-1 b^-1 b^-1", alphabet)
    cls = relator_class(w)
    for k in range(len(w)):
        rotated = Word(alphabet, w.letters[k:] + w.letters[:k])
        assert relator_class(rotated) == relator_class(~rotated) == cls
    # the least of the ten: a b ... beats the inverse's rotation a b^-1 ...
    assert cls == w.letters
    assert relator_class(parse_word("a b", alphabet)) != relator_class(
        parse_word("a b^-1", alphabet)
    )
    assert relator_class(parse_word("1", alphabet)) == ()


# The coordinates of the built-ins: b, c (B); b, c, h (ZxB); b, c, s (G);
# b, c, s, t (E).  a dies with a^2; h survives in ZxB but not in G.
_COORDINATES = {"B": (1, 2), "ZxB": (1, 2, 3), "G": (1, 2, 4), "E": (1, 2, 4, 5)}


def test_zero_sum_coordinates_of_builtins():
    for name, expected in _COORDINATES.items():
        assert zero_sum_coordinates(builtin(name)) == expected, name


def test_zero_sum_coordinates_are_exactly_the_zero_sums():
    # counted here letter by letter: a coordinate has sum 0 in every
    # relator, and every other generator has a relator where it does not
    for name in _COORDINATES:
        p = builtin(name)
        coordinates = zero_sum_coordinates(p)
        for i in range(p.alphabet.arity):
            sums = []
            for rel in p.relators:
                total = 0
                for x in rel.letters:
                    if x // 2 == i:
                        total += -1 if x % 2 else 1
                sums.append(total)
            assert (i in coordinates) == all(t == 0 for t in sums), (name, i)


def test_g_relator_for_stable_letter():
    g = builtin("G")
    assert render_word(g.relators[-1]) == "s^-1 h h s a^-1 h^-1"


def test_hnn_presentation_of_e():
    g = builtin("G")
    extended = hnn_presentation(g, "E", (parse_word("h^2", g.alphabet),), "t")
    assert len(extended.relators) == 9
    assert extended.alphabet == _reference_e().alphabet
    assert same_relator_set(extended, _reference_e())
    # existing relators untouched
    for old, new in zip(g.relators, extended.relators):
        assert old.letters == new.letters


def test_hnn_presentation_z_squared():
    z = make_presentation("Z", Alphabet(("a",)), ())
    ext = hnn_presentation(z, "Z2", (gen(z.alphabet, "a"),), "t")
    assert ext.name == "Z2" and ext.alphabet.names == ("a", "t")
    assert [render_word(r) for r in ext.relators] == ["t^-1 a^-1 t a"]


def test_hnn_presentation_trivial_subgroup_is_free_product():
    alphabet = Alphabet(("a",))
    p = make_presentation("C2", alphabet, (parse_word("a^2", alphabet),))
    ext = hnn_presentation(p, "C2*Z", (), "t")
    assert len(ext.relators) == 1 and ext.alphabet.names == ("a", "t")


def test_hnn_presentation_name_collision():
    with pytest.raises(AlphabetConflictError):
        hnn_presentation(builtin("G"), "x", (), "s")
    with pytest.raises(ValueError, match="wrong alphabet"):
        hnn_presentation(builtin("G"), "x", (parse_word("a", Alphabet(("a",))),), "t")


def test_conjugation_substitution_examples():
    e = builtin("E")
    ident = conjugation_substitution(e, parse_word("1", e.alphabet), "t")
    assert substitute(gen(e.alphabet, "t"), ident) == gen(e.alphabet, "t")
    sigma = conjugation_substitution(e, parse_word("s b", e.alphabet), "t")
    assert render_word(substitute(gen(e.alphabet, "t"), sigma)) == (
        "b^-1 s^-1 t s b"
    )
    sigma2 = conjugation_substitution(e, parse_word("s b^2", e.alphabet), "t")
    assert render_word(substitute(gen(e.alphabet, "t"), sigma2)) == (
        "b^-1 b^-1 s^-1 t s b b"
    )


def test_conjugation_substitution_rejects_stable_conjugator():
    e = builtin("E")
    with pytest.raises(InvalidConjugatorError):
        conjugation_substitution(e, parse_word("t s", e.alphabet), "t")


@pytest.mark.parametrize(
    "names, conjugator",
    [(("b", "a", "c", "h", "s"), "a"), (("x",), "x")],
)
def test_conjugation_substitution_refuses_foreign_conjugator(names, conjugator):
    # read by index, a over (b, a, c, h, s) would be b, and x over (x,) a
    g = parse_word(conjugator, Alphabet(names))
    with pytest.raises(ValueError):
        conjugation_substitution(builtin("E"), g, "t")


def test_presentation_invariants():
    alphabet = Alphabet(("a",))
    with pytest.raises(ValueError):  # unreduced relator
        Presentation("bad", alphabet, (parse_word("a a^-1 a", alphabet),))
    with pytest.raises(ValueError):  # duplicate
        make_presentation(
            "dup", alphabet,
            (parse_word("a^2", alphabet), parse_word("a a", alphabet)),
        )
    with pytest.raises(ValueError):  # empty relator
        make_presentation("triv", alphabet, (parse_word("a a^-1", alphabet),))


def test_parse_serialize_round_trip():
    for name in ("B", "ZxB", "G", "E"):
        p = builtin(name)
        assert parse_presentation(serialize_presentation(p)) == p


def test_parse_relation_forms():
    p = parse_presentation("group T\ngens a\nrel a^2\n")
    assert render_word(p.relators[0]) == "a a"
    q = parse_presentation(
        "group T\ngens a b c h s\nrel (h^2)^s = h a\n"
    )
    assert render_word(q.relators[0]) == "s^-1 h h s a^-1 h^-1"


def test_parse_subgroup_lines_and_comments():
    text = """# sample
group G
gens a b c h s  # the marking
rel a^2
"""
    p = parse_presentation(text)
    assert p.name == "G" and p.alphabet.names == ("a", "b", "c", "h", "s")
    assert [render_word(r) for r in p.relators] == ["a a"]
    # a subgroup is its generator words, given to hnn_presentation; the
    # file format has no subgroup line
    with pytest.raises(WordSyntaxError, match=r"^unknown keyword 'subgroup' \(line 5\)$"):
        parse_presentation(text + "subgroup H2 gen h^2\n")


def test_parse_error_reports_line():
    with pytest.raises(WordSyntaxError) as err:
        parse_presentation("group X\ngens a\nrel a )\n")
    assert "line 3" in str(err.value)
    with pytest.raises(WordSyntaxError):
        parse_presentation("rel a\n")  # rel before gens


def test_conjugation_substitution_is_homomorphism_to_conjugate_extension():
    # applying the substitution to every relator of E yields words trivial
    # in the extension over the conjugated subgroup
    from markedgroups.marked import MarkedGroup, condense, orbit_witness

    e = builtin("E")
    oracle = g_oracle()
    g_word, k_point = orbit_witness(1, oracle)
    sigma = conjugation_substitution(
        e, parse_word("s b", e.alphabet), "t"
    )
    target = condense(MarkedGroup("G", oracle), k_point)
    for rel in e.relators:
        image = substitute(rel, sigma)
        assert target.oracle.is_trivial(image), render_word(rel)
