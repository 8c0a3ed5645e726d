package repro.tables

import org.apache.spark.sql.SparkSession

import repro.core.Metrics
import repro.core.Metrics.PRF
import repro.detect.QuantDetector
import repro.logs.LogModel.LogLine
import repro.logs.LogSynth
import repro.parse.{Preprocess, TemplateOps}

/** T6 — the paper's Eq. 1 claim: quantitative anomalies are detectable
  * only when the parser correctly identifies the variable parts, so the
  * token-level metric (not grouping accuracy) predicts quantitative
  * detection quality.
  *
  * One quantitative-anomaly corpus, three parsing conditions of
  * decreasing token accuracy: ground truth (oracle), well-tuned Drain,
  * and an over-merging Spell — the same value model fitted on each
  * condition's output.
  *
  * Paper expectation: detection F1 tracks token accuracy and collapses
  * with the over-merging parser even though its grouping is still
  * partially right.
  */
object T6QuantDetection {

  final case class Row(condition: String, tokenAccuracy: Double, prf: PRF)

  def run(spark: SparkSession, nSessions: Long, seed: Long = 42L): Seq[Row] = {
    val corpus = LogSynth.hdfsLike(spark, nSessions, anomalyRate = 0.05, quantShare = 1.0, seed)
    val all    = corpus.collect().sortBy(_.lineId).toSeq
    val cut    = DetectEval.firstTestLineId(nSessions)
    val isTrain = (l: LogLine) => l.lineId < cut

    // oracle condition: ground-truth templates and variables
    val oracle = Row("oracle (ground truth)", 1.0,
      evalCondition(all, isTrain, l => Some((l.templateId, l.variables))))

    // parsed conditions: assign online over the full stream, then extract
    // variables via the final mined templates
    def parsedCondition(name: String, outcome: ParserHarness.Outcome): Row = {
      val assign = outcome.assignments.toMap
      val prf = evalCondition(all, isTrain, { l =>
        assign.get(l.lineId).map { tid =>
          val toks = Preprocess.tokenize(l.message)
          (tid, outcome.templates.get(tid).map(t => TemplateOps.extractVars(t, toks)).getOrElse(Nil))
        }
      })
      Row(name, ParserHarness.score(outcome, all, withPayload = false).tokenAccuracy, prf)
    }

    val msgs = all.map(l => (l.lineId, l.message))

    // the paper's central claim isolated: a parser that groups perfectly
    // but never identifies variable parts (templates stay all-static)
    val staticTemplates: Map[Int, Vector[String]] =
      all.groupBy(_.templateId).view
        .mapValues(ls => Preprocess.tokenize(ls.minBy(_.lineId).message)).toMap
    val groupingOnly = ParserHarness.Outcome(
      all.map(l => (l.lineId, l.templateId)), staticTemplates)

    Seq(
      oracle,
      parsedCondition("Drain(4,0.5)", ParserHarness.runDrain(msgs)),
      parsedCondition("Spell(0.1) over-merging", ParserHarness.runSpell(msgs, tau = 0.1)),
      parsedCondition("perfect grouping, no variables", groupingOnly),
    )
  }

  /** Fit on normal training lines, decide per test session. */
  private def evalCondition(all: Seq[LogLine], isTrain: LogLine => Boolean,
                            parse: LogLine => Option[(Int, Seq[String])]): PRF = {
    val quant = new QuantDetector()
    all.iterator.filter(l => isTrain(l) && l.sessionLabel == "normal").foreach { l =>
      parse(l).foreach { case (tid, vars) => quant.observe(tid, vars) }
    }
    val decisions = all.filterNot(isTrain).groupBy(_.sessionId).values.map { lines =>
      val anomalous = lines.exists { l =>
        parse(l).exists { case (tid, vars) => quant.isAnomaly(tid, vars) }
      }
      (anomalous, lines.head.sessionLabel == "quantitative")
    }
    Metrics.score(decisions.toSeq)
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "T6 — quantitative anomaly detection vs parser token accuracy (Eq.1)",
      Seq("parsing condition", "token acc", "precision", "recall", "F1"),
      rows.map(r => Seq(r.condition, TableFmt.f3(r.tokenAccuracy),
                        TableFmt.f3(r.prf.precision), TableFmt.f3(r.prf.recall),
                        TableFmt.f3(r.prf.f1))),
    )
}
