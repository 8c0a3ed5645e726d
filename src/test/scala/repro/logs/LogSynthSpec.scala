package repro.logs

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions._
import scala.util.Random

import repro.{Oracle, SparkSpec}
import repro.logs.LogModel._
import repro.logs.LogSynth.SynthConfig
import repro.parse.Preprocess

class LogSynthSpec extends SparkSpec {

  import spark.implicits._

  private val smallCfg = SynthConfig(Seq("network", "storage"), nSessions = 200,
                                     anomalyRate = 0.1, seed = 1L)

  test("generation is deterministic in (seed, config)") {
    val a = LogSynth.generate(spark, smallCfg).collect().sortBy(_.lineId)
    val b = LogSynth.generate(spark, smallCfg).collect().sortBy(_.lineId)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different corpora") {
    val a = LogSynth.generate(spark, smallCfg).collect().map(_.message).toSeq
    val b = LogSynth.generate(spark, smallCfg.copy(seed = 2L)).collect().map(_.message).toSeq
    assert(a != b)
  }

  test("generation is independent of partitioning") {
    val ds = LogSynth.generate(spark, smallCfg)
    val a  = ds.repartition(3).collect().sortBy(_.lineId).toSeq
    val b  = ds.repartition(13).collect().sortBy(_.lineId).toSeq
    assert(a == b)
  }

  test("sources cycle deterministically across sessions") {
    val bySession = LogSynth.generate(spark, smallCfg).collect().groupBy(_.sessionId)
    bySession.foreach { case (sid, lines) =>
      assert(lines.map(_.source).distinct.length == 1)
      assert(sid.startsWith(lines.head.source))
    }
    assert(bySession.keys.count(_.startsWith("network")) == 100)
    assert(bySession.keys.count(_.startsWith("storage")) == 100)
  }

  test("normal sessions follow their flow's template order") {
    val lines = LogSynth.generate(spark,
      SynthConfig(Seq("compute"), 50, anomalyRate = 0.0, seed = 3L)).collect()
    lines.groupBy(_.sessionId).values.foreach { ls =>
      val seq = ls.sortBy(_.seqIndex).map(_.templateId).toSeq
      assert(seq == Seq(30, 31, 32, 33))
    }
  }

  test("repeat steps stay within bounds") {
    val lines = LogSynth.generate(spark,
      SynthConfig(Seq("storage"), 100, anomalyRate = 0.0, seed = 4L)).collect()
    lines.groupBy(_.sessionId).values.foreach { ls =>
      val reps = ls.count(_.templateId == 22)
      assert(reps >= 2 && reps <= 5)
    }
  }

  test("anomaly rate is approximately honored") {
    val corpus = LogSynth.generate(spark,
      SynthConfig(Seq("hdfs"), 2000, anomalyRate = 0.1, seed = 5L)).collect()
    val rate = corpus.groupBy(_.sessionId).values
      .count(_.head.sessionLabel != Normal).toDouble / 2000
    assert(rate > 0.06 && rate < 0.14)
  }

  test("anomaly-free corpus has only normal labels") {
    val corpus = LogSynth.generate(spark,
      SynthConfig(Seq("hdfs"), 300, anomalyRate = 0.0, seed = 6L)).collect()
    assert(corpus.forall(_.sessionLabel == Normal))
    assert(corpus.forall(!_.anomalous))
  }

  test("sequential sessions deviate from the normal flow") {
    val corpus = LogSynth.generate(spark,
      SynthConfig(Seq("compute"), 2000, anomalyRate = 0.3, quantShare = 0.0, seed = 7L))
      .collect()
    val normalSeq = Seq(30, 31, 32, 33)
    corpus.groupBy(_.sessionId).values.foreach { ls =>
      val seq = ls.sortBy(_.seqIndex).map(_.templateId).toSeq
      if (ls.head.sessionLabel == Sequential) assert(seq != normalSeq)
      else assert(seq == normalSeq)
    }
  }

  test("sequential sessions mark exactly one anomalous line") {
    val corpus = LogSynth.generate(spark,
      SynthConfig(Seq("hdfs"), 1000, anomalyRate = 0.2, quantShare = 0.0, seed = 8L)).collect()
    corpus.groupBy(_.sessionId).values
      .filter(_.head.sessionLabel == Sequential)
      .foreach(ls => assert(ls.count(_.anomalous) == 1))
  }

  test("quantitative sessions keep the normal flow but blow up one value") {
    val corpus = LogSynth.generate(spark,
      SynthConfig(Seq("compute"), 2000, anomalyRate = 0.3, quantShare = 1.0, seed = 9L))
      .collect()
    val quant = corpus.groupBy(_.sessionId).values.filter(_.head.sessionLabel == Quantitative)
    assert(quant.nonEmpty)
    quant.foreach { ls =>
      assert(ls.sortBy(_.seqIndex).map(_.templateId).toSeq == Seq(30, 31, 32, 33))
      val bad = ls.filter(_.anomalous)
      assert(bad.length == 1)
      // the anomalous value is far outside the slot's distribution
      val td   = Flows.allTemplates(bad.head.templateId)
      val slot = td.toks.filter(!_.isInstanceOf[Static]).indexWhere(_.isInstanceOf[NumVar])
      val v    = bad.head.variables(slot).toDouble
      val mean = td.toks.collectFirst { case NumVar(m, _, _) => m }.get
      assert(v > 10 * mean)
    }
  }

  test("message tokens match template arity and variables") {
    val corpus = LogSynth.generate(spark, smallCfg.copy(payloadProb = 0.0)).collect()
    corpus.foreach { l =>
      val msgToks  = Preprocess.tokenize(l.message)
      val tmplToks = Preprocess.tokenize(l.template)
      assert(msgToks.length == tmplToks.length, l.message)
      val vars = tmplToks.indices.filter(i => tmplToks(i) == "<*>").map(msgToks)
      assert(vars == l.variables, l.message)
    }
  }

  test("payload lines carry a parseable trailing JSON block") {
    val corpus = LogSynth.generate(spark,
      SynthConfig(Seq("auth"), 300, anomalyRate = 0.0, payloadProb = 1.0, seed = 10L)).collect()
    val payloadLines = corpus.filter(l => l.templateWithPayload != l.template)
    assert(payloadLines.nonEmpty)
    payloadLines.foreach { l =>
      val (_, payload) = Preprocess.extractStructured(l.message)
      assert(payload.isDefined, l.message)
      // the template's keys, each once, in order, and no other key
      val keys = Flows.allTemplates(l.templateId).payloadKeys
      val at   = keys.map(k => payload.get.indexOf(s""""$k":"""))
      assert(at.forall(_ >= 0) && at == at.sorted && payload.get.count(_ == ':') == keys.size,
             l.message)
    }
  }

  test("timestamps are non-decreasing within a session") {
    val corpus = LogSynth.generate(spark, smallCfg).collect()
    corpus.groupBy(_.sessionId).values.foreach { ls =>
      val ts = ls.sortBy(_.seqIndex).map(_.ts.getTime)
      assert(ts.zip(ts.tail).forall { case (a, b) => a <= b })
    }
  }

  test("sessions interleave in time (multi-source stream shape)") {
    val corpus = LogSynth.generate(spark, smallCfg).collect().sortBy(_.ts.getTime)
    // within any 50 consecutive stream lines there are several sessions
    val windowSessions = corpus.take(50).map(_.sessionId).distinct
    assert(windowSessions.length > 3)
  }

  test("lineIds are unique") {
    val corpus = LogSynth.generate(spark, smallCfg).collect()
    assert(corpus.map(_.lineId).distinct.length == corpus.length)
  }

  test("session/template counts agree with a DuckDB oracle") {
    val df = LogSynth.generate(spark,
      SynthConfig(Seq("hdfs"), 100, anomalyRate = 0.1, seed = 11L))
      .toDF().select($"sessionId", $"templateId", $"sessionLabel")
    val sparkAgg = df.groupBy($"sessionId", $"templateId")
      .agg(count("*").cast("long") as "n")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT sessionId, templateId, COUNT(*) AS n FROM lines GROUP BY sessionId, templateId",
      "lines" -> df,
    )
  }

  test("label distribution agrees with a DuckDB oracle") {
    val df = LogSynth.generate(spark,
      SynthConfig(Seq("network"), 300, anomalyRate = 0.2, seed = 12L))
      .toDF().select($"sessionId", $"sessionLabel")
    val sparkAgg = df.distinct().groupBy($"sessionLabel")
      .agg(count("*").cast("long") as "n")
    Oracle.assertEquivalent(
      sparkAgg,
      """SELECT sessionLabel, COUNT(*) AS n
         FROM (SELECT DISTINCT sessionId, sessionLabel FROM lines)
         GROUP BY sessionLabel""",
      "lines" -> df,
    )
  }

  test("instantiate draws values near the slot distribution") {
    val rng = new Random(13)
    val td  = Flows.allTemplates(21) // Allocating <N(64,16)> blocks for volume <vol>
    val draws = (1 to 300).map(_ => LogSynth.instantiate(td, rng, quantAnomaly = false))
    val nums = draws.map(_._2.head.toDouble)
    val mean = nums.sum / nums.size
    assert(mean > 48 && mean < 80)
    draws.foreach { case (msg, vars) =>
      assert(msg.startsWith("Allocating "))
      assert(vars.length == 2)
    }
  }

  /** SHA-256 over every line's ground truth, in lineId order. */
  private def fingerprint(lines: Seq[LogLine]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.sortBy(_.lineId).foreach { l =>
      val row = Seq(l.lineId.toString, l.message, l.template, l.templateWithPayload,
                    l.variables.mkString("\u0001"), l.sessionLabel).mkString("", "\u0000", "\n")
      md.update(row.getBytes(StandardCharsets.UTF_8))
    }
    md.digest().map(b => f"$b%02x").mkString
  }

  private lazy val goldenCorpora: Seq[(String, Seq[LogLine])] = {
    val cloud = LogSynth.cloud(spark, 2000, 0.05, seed = 3L, payloadProb = 0.7)
    Seq[(String, Dataset[LogLine])](
      "cloud"    -> cloud,
      "hdfsLike" -> LogSynth.hdfsLike(spark, 2000, 0.05, quantShare = 0.5, seed = 3L),
      "unstable" -> Instability.inject(cloud, 0.2, 3L),
    ).map { case (name, ds) => name -> ds.collect().toSeq } :+
      // the first session of this config whose twelve mutations all stay
      // valid flows, so it takes the error-injection fallback
      "fallback" -> LogSynth.genSession(298393L, SynthConfig(Seq("storage", "auth"), 1,
                                                             anomalyRate = 1.0, quantShare = 0.0, seed = 3L))
  }

  test("generation reproduces the recorded corpora byte for byte") {
    // recorded from a generator that stored both template strings on every
    // line, so equality also pins the templates derived from the catalog
    val golden = Map(
      "cloud"    -> "12f52bf2b2257c78a1fbaa3658502a93c12ada619fe86e48660eda693a052afd",
      "hdfsLike" -> "2b1ebd43dee5280fab8c3bf1c6a79826f073a9689666ccaf9836a996ef35bd0f",
      "unstable" -> "8eba3465e4d7db68a1916c7145acf8b496cd38f063abf1596af7e3002f5028f1",
      "fallback" -> "19bbf56865ea558f72cb23c0553d02bff3c630d91500c5a8609335500fdbf588",
    )
    goldenCorpora.foreach { case (name, lines) => assert(fingerprint(lines) == golden(name), name) }
  }

  test("templateWithPayload appends the payload mask exactly on payload lines") {
    goldenCorpora.foreach { case (name, lines) =>
      lines.foreach { l =>
        val keys = Flows.allTemplates(l.templateId).payloadKeys
        val mask = keys.map(k => s""""$k": <*>""").mkString("{", ", ", "}")
        assert(l.templateWithPayload == (if (l.hasPayload) s"${l.template} $mask" else l.template),
               s"$name: ${l.message}")
        // an instability rewrite may merge the payload's tokens
        if (!l.unstable)
          assert(Preprocess.extractStructured(l.message)._2.isDefined == l.hasPayload, s"$name: ${l.message}")
      }
    }
    // the cloud corpus draws both outcomes for payload-bearing templates
    val drawn = goldenCorpora.toMap.apply("cloud")
      .filter(l => Flows.allTemplates(l.templateId).payloadKeys.nonEmpty).map(_.hasPayload)
    assert(drawn.toSet == Set(true, false))
  }
}
