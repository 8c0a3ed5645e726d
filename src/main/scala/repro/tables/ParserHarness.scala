package repro.tables

import org.apache.spark.sql.DataFrame

import repro.logs.LogModel.LogLine
import repro.parse.{DistributedDrain, Drain, ParserEval, Spell, TemplateOps}

/** Driver for the parser experiments: runs a parser over a corpus in
  * arrival order and scores it with both §IV metrics.
  */
object ParserHarness {

  /** A parser run: per-line assignment plus the final template table. */
  final case class Outcome(assignments: Seq[(Long, Int)], templates: Map[Int, Vector[String]])

  /** Per-corpus scores. */
  final case class Scores(groupingAccuracy: Double, tokenAccuracy: Double, numTemplates: Int)

  /** Online single-node parse in lineId (arrival) order. */
  def runOnline(messages: Seq[(Long, String)], parseOne: String => Int,
                templates: () => Map[Int, Vector[String]]): Outcome = {
    val assign = messages.sortBy(_._1).map { case (id, msg) => (id, parseOne(msg)) }
    Outcome(assign, templates())
  }

  def runDrain(messages: Seq[(Long, String)], depth: Int = 4, st: Double = 0.5): Outcome = {
    val d = new Drain(depth, st)
    runOnline(messages, d.parse, () => d.templates)
  }

  def runSpell(messages: Seq[(Long, String)], tau: Double = 0.5): Outcome = {
    val s = new Spell(tau)
    runOnline(messages, s.parse, () => s.templates)
  }

  /** Distributed run, as T4a's "DistDrain(4,0.5,p8)"; assignments are
    * collected for uniform scoring.
    */
  def runDistributed(messages: DataFrame): Outcome = {
    val res = DistributedDrain.parse(messages, depth = 4, simThreshold = 0.5, numPartitions = 8)
    val assign = res.assignments.collect().map(r => (r.getLong(0), r.getInt(1))).toSeq
    res.assignments.unpersist()
    Outcome(assign, res.templates)
  }

  /** Score an outcome against the ground truth of the lines it parsed.
    * Lines are walked in the order given, so callers pass them sorted
    * by `lineId`; a line with no assignment is left out of both metrics.
    *
    * @param withPayload whether the expected template covers the full
    *                    message or only the core text
    */
  def score(outcome: Outcome, lines: Seq[LogLine], withPayload: Boolean): Scores = {
    val assign   = outcome.assignments.toMap
    val rendered = outcome.templates.map { case (tid, t) => tid -> TemplateOps.render(t) }
    val scored   = lines.flatMap(l => assign.get(l.lineId).map(l -> _))
    val grouping = ParserEval.groupingAccuracy(scored.map { case (l, tid) => (tid, l.templateId) })
    val token = ParserEval.tokenAccuracy(scored.map { case (l, tid) =>
      (rendered.getOrElse(tid, ""), if (withPayload) l.templateWithPayload else l.template)
    })
    Scores(grouping, token, outcome.templates.size)
  }
}
