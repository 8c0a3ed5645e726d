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
}
