package repro.detect

import repro.parse.Preprocess

/** Semantic template matching — the LogRobust / LogAnomaly surrogate.
  *
  * Both cited systems survive log-statement instability by mapping a new
  * (variant) template near its origin template in a semantic vector
  * space. This class reproduces that mechanism with normalized lexical
  * overlap: an unseen template is mapped onto the known template whose
  * static tokens it covers best when it covers at least half of them,
  * otherwise it is reported as genuinely novel. `MoniLogPipeline.parseOne`
  * falls back to it when the frozen Drain finds no match; T3's exact
  * column, an empty matcher, reproduces DeepLog's collapse under
  * instability.
  */
class SemanticMatcher(knownTemplates: Map[Int, Seq[String]]) extends Serializable {
  import SemanticMatcher.norm

  /** Least coverage of a known template's static tokens that maps onto it. */
  private val Tau = 0.5

  private def keyTokens(toks: Seq[String]): Set[String] =
    toks.filterNot(_.contains("<*>")).map(norm).filter(_.nonEmpty).toSet

  private val known: Seq[(Int, Set[String])] =
    knownTemplates.toSeq.sortBy(_._1).map { case (id, toks) => id -> keyTokens(toks) }

  /** Map an unseen template's tokens onto the closest known template id,
    * when the match clears [[Tau]].
    *
    * Scoring is the *coverage of the known template's static tokens* by
    * the candidate (after masking variable-looking candidate tokens): a
    * variant statement still contains most of its origin's static words,
    * while its variable values must not dilute the score. Ties prefer
    * the template whose static set is better covered in return (fewer
    * spurious absorptions of short templates into long messages).
    */
  def mapTemplate(tokens: Seq[String]): Option[Int] = {
    val cand = tokens.filterNot(t => t.contains("<*>") || Preprocess.looksVariable(t))
      .map(norm).filter(_.nonEmpty).toSet
    if (cand.isEmpty) return None
    var bestId  = -1
    var bestKey = (-1.0, -1.0)
    known.foreach { case (id, ks) =>
      if (ks.nonEmpty) {
        val inter    = cand.intersect(ks).size.toDouble
        val coverage = inter / ks.size
        val backCov  = inter / cand.size
        if (coverage > bestKey._1 ||
            (coverage == bestKey._1 && backCov > bestKey._2)) {
          bestKey = (coverage, backCov); bestId = id
        }
      }
    }
    if (bestKey._1 >= Tau) Some(bestId) else None
  }
}

object SemanticMatcher {

  /** Normalize a token for comparison: case-fold, strip punctuation and
    * version-y suffixes — the lexical stand-in for embedding proximity
    * of word variants. One scan, equal to
    * `tok.toLowerCase(Locale.ROOT).replaceAll("[^a-z0-9*]", "").stripSuffix("v2")`:
    * a character whose lower case is an ASCII letter, digit or `*` is
    * kept in that form (`İ` as `i`, the Kelvin sign as `k`), every other
    * character, surrogates included, is dropped.
    */
  private[detect] def norm(tok: String): String = {
    val out = new java.lang.StringBuilder(tok.length)
    var i   = 0
    while (i < tok.length) {
      val c = Character.toLowerCase(tok.charAt(i))
      if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '*') out.append(c)
      i += 1
    }
    val n = out.length
    if (n >= 2 && out.charAt(n - 2) == 'v' && out.charAt(n - 1) == '2') out.setLength(n - 2)
    out.toString
  }
}
