package repro.detect

import java.util.Locale

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import repro.parse.Preprocess

class SemanticMatcherSpec extends AnyFunSuite {

  private val templates = Map(
    1 -> Seq("Sending", "<*>", "bytes", "src:", "<*>", "dest:", "<*>"),
    2 -> Seq("Connection", "opened", "src:", "<*>", "port:", "<*>"),
    3 -> Seq("Volume", "<*>", "attached", "successfully", "in", "<*>", "ms"),
  )
  private val m = new SemanticMatcher(templates)

  test("identical template maps to itself") {
    assert(m.mapTemplate(templates(1)).contains(1))
  }

  test("synonym twist maps back to the origin template") {
    assert(m.mapTemplate(Seq("Transmitting", "42", "bytes", "src:", "a", "dest:", "b")).contains(1))
  }

  test("_v2 rename maps back to the origin template") {
    assert(m.mapTemplate(Seq("Sending_v2", "42", "bytes", "src:", "a", "dest:", "b")).contains(1))
  }

  test("inserted token still maps back") {
    assert(m.mapTemplate(Seq("Connection", "now", "opened", "src:", "a", "port:", "9")).contains(2))
  }

  test("a genuinely novel statement maps to none") {
    assert(m.mapTemplate(Seq("Completely", "unrelated", "words", "here")).isEmpty)
  }

  test("a coverage of exactly one half maps, a lower coverage does not") {
    // 100 static tokens: 50 covered is exactly one half, 49 is just below
    val words = for (a <- 'a' to 'j'; b <- 'a' to 'j') yield s"$a$b"
    val wide  = new SemanticMatcher(Map(1 -> words))
    assert(wide.mapTemplate(words.take(50) :+ "other").contains(1))
    assert(wide.mapTemplate(words.take(49) :+ "other").isEmpty)
  }

  test("wildcards are ignored in comparison") {
    // the template's key set is {open, file}: one of two is half, which
    // maps; were the wildcard a key, one of three would not
    val m1 = new SemanticMatcher(Map(1 -> Seq("open", "<*>", "file")))
    assert(m1.mapTemplate(Seq("open", "socket")).contains(1))
    assert(m1.mapTemplate(Seq("open", "file")).contains(1))
    assert(m1.mapTemplate(Seq("open", "<*>", "<*>", "file")).contains(1))
    // candidate wildcards are no tokens either: <*> covers nothing
    assert(m1.mapTemplate(Seq("<*>", "socket")).isEmpty)
  }

  test("a tokenized raw message maps") {
    assert(m.mapTemplate(Preprocess.tokenize("Volume vol-7 attached successfully in 912 ms")).contains(3))
  }

  test("all-variable candidate maps to none") {
    assert(m.mapTemplate(Seq("<*>", "<*>")).isEmpty)
  }

  test("best match wins among several candidates") {
    val tight = Map(
      10 -> Seq("job", "start", "on", "node"),
      11 -> Seq("job", "start", "on", "host", "with", "retry"),
    )
    val mm = new SemanticMatcher(tight)
    // both clear one half (4/4 and 3/6): the better-covered one wins
    assert(mm.mapTemplate(Seq("job", "start", "on", "node")).contains(10))
    // 3/4 against 5/6
    assert(mm.mapTemplate(Seq("job", "start", "on", "host", "with")).contains(11))
  }

  /** The regex form `norm` replaced, with the case fold pinned to the root
    * locale (the regex form folded in the JVM's default locale).
    */
  private def referenceNorm(tok: String): String =
    tok.toLowerCase(Locale.ROOT).replaceAll("[^a-z0-9*]", "").stripSuffix("v2")

  test("norm equals the regex reference on random tokens") {
    // ASCII, punctuation, '*', non-ASCII letters (İ and the Kelvin sign
    // fold to ASCII), non-ASCII digits and surrogate pairs
    val pieces = Gen.frequency(
      6 -> Gen.alphaNumChar.map(_.toString),
      2 -> Gen.oneOf("*", "_", "-", ":", ".", "/", "<*>", " "),
      3 -> Gen.oneOf("é", "ß", "Σ", "ς", "ı", "İ", "\u212A", "Å", "Ω", "ǅ", "٣", "Ⅻ"),
      2 -> Gen.oneOf("\uD801\uDC00", "\uD83D\uDE00", "\uD835\uDC00", "\uD801", "\uDC00"),
    )
    val token = for {
      body   <- Gen.choose(0, 8).flatMap(Gen.listOfN(_, pieces))
      suffix <- Gen.oneOf("", "v2", "V2", "_v2", "v2v2", "v2.", "v")
    } yield body.mkString + suffix
    for (t <- Seq("", "v2", "V2", "*", "İv2", "\u212Av2", "Sending_v2", "src:", "<*>"))
      assert(SemanticMatcher.norm(t) == referenceNorm(t), t)
    val prop = Prop.forAllNoShrink(token) { t =>
      val got = SemanticMatcher.norm(t)
      Prop(got == referenceNorm(t)) :| s"'$t' → '$got'"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(2000)
                              .withInitialSeed(Seed(41L)), prop)
    assert(result.passed, result.status)
  }
}
