package repro.parse

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.logs.{Instability, LogSynth}

class PreprocessSpec extends AnyFunSuite {

  /** The regex versions the char scans replaced: the reference. */
  private object Reference {
    def tokenize(message: String): Vector[String] =
      message.trim.split("\\s+").filter(_.nonEmpty).toVector

    private val TrailingJson = """\s*(\{.*\})\s*$""".r

    def extractStructured(message: String): (String, Option[String]) =
      TrailingJson.findFirstMatchIn(message) match {
        case Some(m) if m.start > 0 => (message.substring(0, m.start).trim, Some(m.group(1)))
        case _                      => (message.trim, None)
      }

    private val Num   = """^\d+(\.\d+)?$""".r
    private val Ip    = """^/?\d{1,3}(\.\d{1,3}){3}(:\d+)?,?$""".r
    private val HexId = """^(blk|vol|req|i)[-_][\w-]+$""".r

    def looksVariable(tok: String): Boolean = {
      val t = tok.stripSuffix(",")
      Num.matches(t) || Ip.matches(t) || HexId.matches(t) || t.exists(_.isDigit)
    }
  }

  private def assertSameAsReference(s: String): Unit = {
    assert(Preprocess.tokenize(s) == Reference.tokenize(s), s)
    assert(Preprocess.extractStructured(s) == Reference.extractStructured(s), s)
    assert(Preprocess.looksVariable(s) == Reference.looksVariable(s), s)
  }

  test("scanners equal the regex reference on 1M random strings") {
    // every whitespace class, a control char, two line terminators that
    // are not `\s`, braces, digits and the chars of numbers, IPs and ids
    val alphabet = " \t\n\r\f\u000B\u0001\u0085\u2028{}0123456789,.:\"-_i".toVector
    val rng = new Random(11)
    (1 to 1000000).foreach { _ =>
      assertSameAsReference(Vector.fill(rng.nextInt(24))(alphabet(rng.nextInt(alphabet.size))).mkString)
    }
  }

  test("looksVariable equals the regex reference on 1M random id-shaped tokens") {
    val prefixes = Vector("blk", "vol", "req", "i", "bl", "vo", "re", "I", "x", "")
    val alphabet = "-_,aZz09.: {".toVector
    val rng = new Random(12)
    (1 to 1000000).foreach { _ =>
      val t = prefixes(rng.nextInt(prefixes.size)) +
        Vector.fill(rng.nextInt(6))(alphabet(rng.nextInt(alphabet.size))).mkString
      assert(Preprocess.looksVariable(t) == Reference.looksVariable(t), t)
    }
  }

  test("scanners equal the regex reference on every cloud message, stable and unstable") {
    val cfg   = LogSynth.SynthConfig(Seq("network", "storage", "compute", "auth"), 0L, payloadProb = 0.7)
    val lines = (0L until 4000L).flatMap(LogSynth.genSession(_, cfg))
    assert(lines.exists(l => Preprocess.extractStructured(l.message)._2.isDefined))
    for (l <- lines ++ lines.flatMap(Instability.injectLine(_, 0.2, 7L))) {
      assertSameAsReference(l.message)
      Reference.tokenize(l.message).foreach(t => assert(Preprocess.looksVariable(t) == Reference.looksVariable(t), t))
    }
  }

  test("tokenize splits on runs of whitespace") {
    assert(Preprocess.tokenize("a  b\tc   d") == Vector("a", "b", "c", "d"))
  }

  test("tokenize trims leading and trailing space") {
    assert(Preprocess.tokenize("  hello world  ") == Vector("hello", "world"))
  }

  test("tokenize of empty string is empty") {
    assert(Preprocess.tokenize("").isEmpty)
    assert(Preprocess.tokenize("   ").isEmpty)
  }

  test("extractStructured strips a trailing JSON payload") {
    val (core, payload) = Preprocess.extractStructured(
      """Send 42 bytes to 1.2.3.4 {"user_id": "125", "service": "dart_vader"}""")
    assert(core == "Send 42 bytes to 1.2.3.4")
    assert(payload.contains("""{"user_id": "125", "service": "dart_vader"}"""))
  }

  test("extractStructured leaves messages without payload untouched") {
    val (core, payload) = Preprocess.extractStructured("plain message no json")
    assert(core == "plain message no json")
    assert(payload.isEmpty)
  }

  test("extractStructured does not treat an all-JSON message as payload") {
    val msg = """{"only": "json"}"""
    val (core, payload) = Preprocess.extractStructured(msg)
    assert(core == msg)
    assert(payload.isEmpty)
  }

  test("looksVariable accepts numbers, IPs and ids") {
    assert(Preprocess.looksVariable("42"))
    assert(Preprocess.looksVariable("3.14"))
    assert(Preprocess.looksVariable("10.250.1.3"))
    assert(Preprocess.looksVariable("/10.250.1.3"))
    assert(Preprocess.looksVariable("blk_123"))
    assert(Preprocess.looksVariable("vol-7"))
  }

  test("looksVariable rejects plain words") {
    assert(!Preprocess.looksVariable("Sending"))
    assert(!Preprocess.looksVariable("bytes"))
    assert(!Preprocess.looksVariable("src:"))
  }

  test("tokenize-then-join roundtrips single-space messages (100 random cases)") {
    val rng = new Random(1)
    (1 to 100).foreach { _ =>
      val words = Vector.fill(1 + rng.nextInt(10))(Random.alphanumeric.take(1 + rng.nextInt(8)).mkString)
      val msg = words.mkString(" ")
      assert(Preprocess.tokenize(msg) == words)
    }
  }

  test("extractStructured core never contains the payload braces (100 random cases)") {
    val rng = new Random(2)
    (1 to 100).foreach { _ =>
      val k = "k" + rng.nextInt(1000)
      val v = "v" + rng.nextInt(1000)
      val (core, payload) = Preprocess.extractStructured(s"""head tail {"$k": "$v"}""")
      assert(core == "head tail")
      assert(payload.isDefined)
    }
  }
}
