package repro.parse

import scala.collection.mutable

/** Spell — streaming structured log parsing via longest common
  * subsequence (Du & Li, ICDM 2016), one of the online parsers the
  * paper's §IV benchmark covers.
  *
  * For each new line, the group whose template shares the longest common
  * subsequence is selected; if |LCS| ≥ `tau` · |line| the line joins it
  * and the template is refined to the LCS (positions absent from the LCS
  * become `<*>`), otherwise a new group is created.
  *
  * `tau` is Spell's single hyper-parameter — part of the automation-limit
  * study alongside Drain's two.
  */
class Spell(val tau: Double = 0.5) extends Serializable {

  final class Group(val id: Int, var template: Vector[String]) extends Serializable

  private val groups = mutable.ArrayBuffer.empty[Group]

  def templates: Map[Int, Vector[String]] =
    groups.map(g => g.id -> g.template).toMap

  def parse(message: String): Int = parseTokens(Preprocess.tokenize(message))

  def parseTokens(tokens: Vector[String]): Int = synchronized {
    var best: Group = null
    var bestLcs     = 0
    groups.foreach { g =>
      // cheap length prefilter: LCS can't beat the shorter side
      val bound = math.min(g.template.count(_ != "<*>"), tokens.length)
      if (bound > bestLcs) {
        val l = lcsLength(g.template.filter(_ != "<*>"), tokens)
        if (l > bestLcs) { bestLcs = l; best = g }
      }
    }
    if (best != null && bestLcs >= tau * tokens.length) {
      best.template = refine(best.template, tokens)
      best.id
    } else {
      val g = new Group(groups.length, tokens)
      groups += g
      g.id
    }
  }

  /** Classic O(m·n) LCS length. Template vocabularies are small (tens of
    * groups, ≤ ~20 tokens each) so this stays cheap at corpus scale.
    */
  private[parse] def lcsLength(a: Vector[String], b: Vector[String]): Int = {
    val m = a.length; val n = b.length
    if (m == 0 || n == 0) return 0
    val prev = new Array[Int](n + 1)
    val cur  = new Array[Int](n + 1)
    var i = 1
    while (i <= m) {
      var j = 1
      while (j <= n) {
        cur(j) =
          if (a(i - 1) == b(j - 1)) prev(j - 1) + 1
          else math.max(prev(j), cur(j - 1))
        j += 1
      }
      System.arraycopy(cur, 0, prev, 0, n + 1)
      i += 1
    }
    prev(n)
  }

  /** Align template and tokens position-wise on the LCS; everything not
    * part of the common subsequence becomes `<*>` (collapsing runs).
    */
  private def refine(template: Vector[String], tokens: Vector[String]): Vector[String] = {
    val statics = template.filter(_ != "<*>")
    // recover one LCS between statics and tokens
    val m = statics.length; val n = tokens.length
    val dp = Array.ofDim[Int](m + 1, n + 1)
    for (i <- 1 to m; j <- 1 to n)
      dp(i)(j) =
        if (statics(i - 1) == tokens(j - 1)) dp(i - 1)(j - 1) + 1
        else math.max(dp(i - 1)(j), dp(i)(j - 1))
    val lcs = mutable.ListBuffer.empty[String]
    var i = m; var j = n
    while (i > 0 && j > 0) {
      if (statics(i - 1) == tokens(j - 1)) { lcs.prepend(statics(i - 1)); i -= 1; j -= 1 }
      else if (dp(i - 1)(j) >= dp(i)(j - 1)) i -= 1
      else j -= 1
    }
    // rebuild over the new tokens: LCS members stay, the rest wildcard
    val it  = lcs.iterator
    var nxt = if (it.hasNext) it.next() else null
    val out = tokens.map { t =>
      if (nxt != null && t == nxt) { nxt = if (it.hasNext) it.next() else null; t }
      else "<*>"
    }
    out
  }
}
