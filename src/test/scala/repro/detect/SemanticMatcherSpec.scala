package repro.detect

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

  test("tau=1 demands full static-token overlap") {
    val strict = new SemanticMatcher(templates, tau = 1.0)
    assert(strict.mapTemplate(Seq("Sending", "9", "bytes", "src:", "x", "dest:", "y")).contains(1))
    assert(strict.mapTemplate(Seq("Transmitting", "9", "bytes", "src:", "x", "dest:", "y")).isEmpty)
  }

  test("wildcards are ignored in comparison") {
    val strict = new SemanticMatcher(Map(1 -> Seq("a", "<*>", "b")), tau = 1.0)
    assert(strict.mapTemplate(Seq("a", "b")).contains(1))
    assert(strict.mapTemplate(Seq("a", "<*>", "<*>", "b")).contains(1))
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
    val mm = new SemanticMatcher(tight, tau = 0.3)
    assert(mm.mapTemplate(Seq("job", "start", "on", "node")).contains(10))
  }
}
