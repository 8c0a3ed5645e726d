package repro.logs

import java.sql.Timestamp

/** Data model for the synthetic multi-source log corpus.
  *
  * Every generated line carries its ground truth (template id, variable
  * values, anomaly/instability labels; template text via [[Flows]]) so
  * parsers and detectors can be scored without manual labeling — the
  * synthetic stand-in for the labeled production data the paper had.
  */
object LogModel {

  /** Session-level label values. */
  val Normal       = "normal"
  val Sequential   = "sequential"
  val Quantitative = "quantitative"

  /** One generated log line with full ground truth.
    *
    * @param lineId       globally unique, deterministic line id
    * @param ts           event timestamp (drives windowing / interleaving)
    * @param source       producing subsystem ("network", "storage", …)
    * @param sessionId    execution-flow instance the line belongs to
    * @param seqIndex     position of the line within its session
    * @param message      the free-text MESSAGE field (payload included)
    * @param templateId   ground-truth template id (stable across instability)
    * @param hasPayload   true iff the message carries its template's JSON payload
    * @param variables    ground-truth variable values in order of appearance
    * @param anomalous    true iff THIS line is the injected anomalous event
    * @param sessionLabel session-level label: normal | sequential | quantitative
    * @param unstable     true iff an instability transform rewrote this line
    */
  case class LogLine(
      lineId: Long,
      ts: Timestamp,
      source: String,
      sessionId: String,
      seqIndex: Int,
      message: String,
      templateId: Int,
      hasPayload: Boolean,
      variables: Seq[String],
      anomalous: Boolean,
      sessionLabel: String,
      unstable: Boolean,
  ) {
    /** Ground-truth core template string, variables as `<*>`. */
    def template: String = Flows.allTemplates(templateId).templateString

    /** Expected masked tokens for the full message as emitted. */
    def templateWithPayload: String =
      if (hasPayload) Flows.allTemplates(templateId).templateWithPayload else template
  }

  /** A token slot inside a template definition. */
  sealed trait Tok extends Serializable
  /** A fixed (static) token of the log statement. */
  final case class Static(s: String) extends Tok
  /** A numeric variable slot drawn from N(mean, std), truncated at 0. */
  final case class NumVar(mean: Double, std: Double, integer: Boolean = true) extends Tok
  /** A categorical variable slot drawn uniformly from a pool. */
  final case class CatVar(pool: IndexedSeq[String]) extends Tok

  /** A log statement: static skeleton plus variable slots.
    *
    * @param payloadKeys when non-empty, generated lines append a JSON
    *                    payload with these keys (the paper's "structured
    *                    data concatenated to free text" case, §IV)
    */
  final case class TemplateDef(
      id: Int,
      source: String,
      toks: Seq[Tok],
      payloadKeys: Seq[String] = Nil,
  ) {
    /** Template string with `<*>` in variable slots. */
    val templateString: String = toks.map {
      case Static(s) => s
      case _         => "<*>"
    }.mkString(" ")

    /** [[templateString]] plus the masked JSON payload a line may append:
      * after space-tokenization, key tokens are static, value tokens `<*>`.
      */
    val templateWithPayload: String =
      if (payloadKeys.isEmpty) templateString
      else payloadKeys.map(k => s""""$k": <*>""").mkString(s"$templateString {", ", ", "}")
  }

  /** One step of a session flow. */
  sealed trait Step extends Serializable
  /** The template always occurs exactly once at this point of the flow. */
  final case class Fixed(templateId: Int) extends Step
  /** The template repeats between min and max times (inclusive). */
  final case class Repeat(templateId: Int, min: Int, max: Int) extends Step

  /** A source's normal execution flow plus its error-branch templates
    * (only emitted when a sequential anomaly is injected).
    */
  final case class SourceFlow(
      source: String,
      steps: Seq[Step],
      errorTemplateIds: Seq[Int],
  )
}
