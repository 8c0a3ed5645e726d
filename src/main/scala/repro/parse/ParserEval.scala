package repro.parse

/** Evaluation metrics for log parsers.
  *
  * Implements both the literature's reference metric (grouping accuracy,
  * Zhu et al. [10]) and the paper's *proposed* token-level metric (§IV,
  * Eq. 1) that scores whether each token's static/variable identity was
  * recovered — the property quantitative anomaly detection depends on.
  * Both score a parser outcome already on the driver, one pair per line.
  */
object ParserEval {

  /** Grouping accuracy: a line is correctly parsed iff the set of lines
    * sharing its predicted group equals the set of lines sharing its
    * ground-truth group (exact group match, the standard definition):
    * its (pred, true) cell holds as many lines as each of the two groups.
    *
    * @param pairs (predicted id, true id) of each line
    */
  def groupingAccuracy(pairs: Seq[(Int, Int)]): Double = {
    if (pairs.isEmpty) return 0.0
    def sizes[K](key: ((Int, Int)) => K): Map[K, Int] = pairs.groupMapReduce(key)(_ => 1)(_ + _)
    val predN = sizes(_._1)
    val trueN = sizes(_._2)
    val correct = sizes(identity).iterator.collect {
      case ((pred, tru), n) if n == predN(pred) && n == trueN(tru) => n
    }.sum
    correct.toDouble / pairs.size
  }

  /** The paper's token-level metric (Eq. 1): mean over lines of the
    * per-line fraction of tokens whose identity is recovered. A
    * ground-truth token containing `<*>` (a variable slot) is recovered
    * iff the parser's template has `<*>` at that position; a static
    * token must match exactly. Length mismatches score the missing
    * positions 0, with the ground-truth length as denominator.
    *
    * @param pairs (predicted template, true template) of each line, both
    *              as space-joined token strings; the mean sums them in
    *              the order given
    */
  def tokenAccuracy(pairs: Seq[(String, String)]): Double =
    if (pairs.isEmpty) 0.0
    else pairs.iterator.map { case (pred, tru) => lineTokenScore(pred, tru) }.sum / pairs.size

  /** Per-line Eq. 1 term; exposed for unit tests. */
  def lineTokenScore(predTemplate: String, trueTemplate: String): Double = {
    val p = Preprocess.tokenize(predTemplate)
    val t = Preprocess.tokenize(trueTemplate)
    if (t.isEmpty) return 0.0
    val hits = t.indices.count { j =>
      j < p.length && {
        if (t(j).contains("<*>")) p(j).contains("<*>")
        else p(j) == t(j)
      }
    }
    hits.toDouble / t.length
  }
}
