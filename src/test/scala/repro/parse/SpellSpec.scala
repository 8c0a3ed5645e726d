package repro.parse

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SpellSpec extends AnyFunSuite {

  test("identical messages share a group") {
    val s = new Spell()
    assert(s.parse("alpha beta gamma") == s.parse("alpha beta gamma"))
  }

  test("variable positions become <*> via the LCS") {
    val s = new Spell()
    val a = s.parse("Sending 138 bytes src: h1 dest: h2")
    val b = s.parse("Sending 999 bytes src: h3 dest: h4")
    assert(a == b)
    assert(s.templates(a) == Vector("Sending", "<*>", "bytes", "src:", "<*>", "dest:", "<*>"))
  }

  test("dissimilar messages start new groups") {
    val s = new Spell()
    val a = s.parse("one two three")
    val b = s.parse("completely different words here")
    assert(a != b)
  }

  test("tau=1 only groups exact repeats") {
    val s = new Spell(tau = 1.0)
    val a = s.parse("x y z")
    val b = s.parse("x y w")
    assert(a != b)
  }

  test("low tau merges across lengths (the over-merging regime)") {
    val s = new Spell(tau = 0.2)
    val a = s.parse("job started on node n1 with priority high")
    val b = s.parse("job started on node n2")
    assert(a == b)
  }

  test("lcsLength computes classic LCS") {
    val s = new Spell()
    assert(s.lcsLength(Vector("a", "b", "c", "d"), Vector("a", "x", "c", "y")) == 2)
    assert(s.lcsLength(Vector("a", "b"), Vector("c", "d")) == 0)
    assert(s.lcsLength(Vector(), Vector("a")) == 0)
    assert(s.lcsLength(Vector("a", "b", "c"), Vector("a", "b", "c")) == 3)
  }

  test("ids are stable as templates refine") {
    val s = new Spell()
    val a = s.parse("PacketResponder 1 for block b1 terminating")
    val b = s.parse("PacketResponder 2 for block b2 terminating")
    val c = s.parse("PacketResponder 0 for block b7 terminating")
    assert(Set(a, b, c).size == 1)
  }

  test("recovers all templates of a generated source") {
    val rng = new Random(5)
    val s = new Spell(0.5)
    val tds = repro.logs.Flows.storageTemplates
    val msgs = (1 to 600).map(_ => tds(rng.nextInt(tds.size)))
      .map(td => repro.logs.LogSynth.instantiate(td, rng, quantAnomaly = false)._1)
    msgs.foreach(s.parse)
    // Spell may split a template whose variables dominate, but must not
    // collapse distinct statements; ids at or above `mined` are new groups
    val mined = s.templates.size
    val ids = tds.map(td =>
      s.parse(repro.logs.LogSynth.instantiate(td, rng, quantAnomaly = false)._1))
    assert(ids.filter(_ < mined).distinct.size >= tds.size - 1)
  }
}
