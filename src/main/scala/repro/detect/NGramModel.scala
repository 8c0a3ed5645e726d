package repro.detect

import scala.collection.mutable

/** DeepLog-surrogate sequential anomaly detector.
  *
  * DeepLog's LSTM reduces, at decision time, to: "predict a distribution
  * over the next event from the recent history; flag the actual event if
  * it is not among the top-g candidates". This class implements exactly
  * that rule with an order-`h` Markov model with backoff, trained on
  * anomaly-free sequences only (the paper's §III plan: precision when
  * trained without anomalies). It inherits DeepLog's closed-world
  * assumption: an event id outside the training vocabulary is anomalous
  * by construction — which is the failure mode the instability
  * experiment (T3) measures, and which [[SemanticMatcher]] repairs.
  *
  * Substitution note (see DESIGN.md): the LSTM is replaced because no
  * deep-learning runtime exists in the offline environment; the top-g
  * decision rule and its failure modes are preserved.
  */
class NGramModel(val h: Int = 2, val topG: Int = 9,
                 val checkEnd: Boolean = true) extends Serializable {

  /** start-of-sequence padding symbol. */
  private val Start = -1
  /** end-of-sequence symbol: sessions also end in learned ways, which is
    * how premature termination (the paper's truncate anomaly) is caught.
    */
  val End = -2

  private val counts = mutable.Map.empty[List[Int], mutable.Map[Int, Long]]
  private val vocab  = mutable.Set.empty[Int]
  /** Each context's top-g set, as of the last [[fit]]. */
  private var top    = Map.empty[List[Int], Set[Int]]

  def vocabulary: Set[Int] = vocab.toSet

  def fit(sequences: IterableOnce[Seq[Int]]): this.type = {
    sequences.iterator.foreach { seq =>
      vocab ++= seq
      val padded = List.fill(h)(Start) ++ seq ++ (if (seq.nonEmpty) List(End) else Nil)
      padded.sliding(h + 1).foreach {
        case window if window.length == h + 1 =>
          val next = window.last
          // record every backoff order so detection can shorten context
          for (order <- 1 to h) {
            val ctx = window.slice(h - order, h)
            counts.getOrElseUpdate(ctx, mutable.Map.empty)
              .updateWith(next) { c => Some(c.getOrElse(0L) + 1L) }
          }
        case _ => ()
      }
    }
    top = counts.iterator.map { case (ctx, m) =>
      ctx -> m.toSeq.sortBy { case (ev, c) => (-c, ev) }.take(topG).map(_._1).toSet
    }.toMap
    this
  }

  /** Top-g next-event candidates for a history, longest known context
    * first. None when even the unigram context is unseen.
    */
  def predict(history: Seq[Int]): Option[Set[Int]] = {
    val a = history.toArray
    Option(predictAt(a, a.length))
  }

  /** [[predict]] of `seq.take(end)`; null when no context is known. */
  private def predictAt(seq: Array[Int], end: Int): Set[Int] = {
    // the last h events before `end`, Start-padded; each tail is the next shorter context
    var ctx: List[Int] = Nil
    var j = end - 1
    while (j >= end - h) { ctx = (if (j >= 0) seq(j) else Start) :: ctx; j -= 1 }
    while (ctx.nonEmpty) {
      val s = top.getOrElse(ctx, null)
      if (s ne null) return s
      ctx = ctx.tail
    }
    null
  }

  /** Indices of anomalous events in a sequence: unknown ids, or events
    * outside the top-g prediction of their context. When `checkEnd`, a
    * sequence whose final context does not predict the End symbol gets
    * the extra index `seq.length` ("missing termination") — this is what
    * catches premature-termination anomalies.
    */
  def anomalousEvents(seq: Seq[Int]): Seq[Int] = {
    val a = seq.toArray
    def outside(end: Int, ev: Int): Boolean = {
      val cands = predictAt(a, end)
      cands == null || !cands.contains(ev) // null: context never seen in normal data
    }
    val events = a.indices.filter(i => !vocab.contains(a(i)) || outside(i, a(i)))
    val endBad = checkEnd && a.nonEmpty && a.forall(vocab.contains) && outside(a.length, End)
    if (endBad) events :+ a.length else events
  }

  def isAnomalous(seq: Seq[Int]): Boolean = anomalousEvents(seq).nonEmpty
}
