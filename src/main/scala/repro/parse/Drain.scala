package repro.parse

import scala.collection.mutable

/** Drain — online log parsing with a fixed-depth parse tree (He et al.,
  * ICWS 2017), the parser the paper identifies as the most efficient
  * existing solution and the base of its planned distributed variant.
  *
  * Tree layout: root → token-count node → up to `depth - 2` leading-token
  * nodes (tokens containing digits descend through a `<*>` child, and a
  * node caps its children at `maxChildren`, overflow going to `<*>`) →
  * leaf holding a list of log groups. A new line joins the most similar
  * group if the similarity of static tokens ≥ `simThreshold`, updating
  * the group template token-wise (mismatching positions become `<*>`);
  * otherwise it starts a new group. An empty line equals an empty
  * template.
  *
  * The two hyper-parameters (`depth`, `simThreshold`) are exactly the
  * ones whose sensitivity the paper measures as an automation limit
  * (§IV); `T4ParserBench` sweeps them.
  *
  * [[parseTokens]] grows the tree under the instance lock;
  * [[matchTokens]] walks the same tree without a lock and allocates
  * nothing. That is safe under one rule: a `Drain` does not learn while
  * another thread matches it. Learn first, then hand the tree over (a
  * broadcast, a thread start), then match from any number of threads.
  * Instances are serializable so a trained tree can be broadcast and
  * matched in executors (frozen, streaming mode).
  */
class Drain(
    val depth: Int = 4,
    val simThreshold: Double = 0.4,
    val maxChildren: Int = 100,
) extends Serializable {

  /** A leaf group: its stable id and mined template. It also keeps the
    * positions where the template is static and the words there, since
    * only those count towards similarity.
    */
  private final class Group(val id: Int, tokens: Vector[String]) extends Serializable {
    val found: Option[Int] = Some(id) // a match allocates nothing
    var template: Vector[String] = _
    var statics: Array[Int]      = _
    var words: Array[String]     = _
    set(tokens)

    def set(t: Vector[String]): Unit = {
      template = t
      statics = t.indices.filter(t(_) != "<*>").toArray
      words = statics.map(t)
    }
  }

  private final class Node extends Serializable {
    val children = new java.util.HashMap[String, Node]()
    val groups   = mutable.ArrayBuffer.empty[Group]

    /** Child for a token key; an unknown key falls through `<*>`. */
    def next(key: String): Node = {
      val c = children.get(key)
      if (c ne null) c else children.get("<*>")
    }
  }

  /** Token-count level: the node for `n` tokens is `byLength(n)`. Once
    * `maxChildren` counts have nodes, a new count goes to `anyLength`.
    */
  private var byLength  = new Array[Node](0)
  private var counts    = 0
  private var anyLength: Node = null
  private val groups    = mutable.ArrayBuffer.empty[Group] // by id

  /** All mined templates, id → token vector. */
  def templates: Map[Int, Vector[String]] = groups.iterator.map(g => g.id -> g.template).toMap

  /** Parse one message online: returns the group id, learning as needed. */
  def parse(message: String): Int = parseTokens(Preprocess.tokenize(message))

  /** Parse pre-tokenized input online. */
  def parseTokens(tokens: Vector[String]): Int = synchronized {
    val leaf = descend(tokens)
    val g    = best(leaf, tokens)
    if (g ne null) {
      val merged = merge(g.template, tokens)
      if (merged != g.template) g.set(merged)
      g.id
    } else {
      val fresh = new Group(groups.length, tokens)
      groups += fresh
      leaf.groups += fresh
      fresh.id
    }
  }

  /** Frozen lookup: match without learning. None if no group is similar
    * enough (a novel template — MoniLog's streaming path hands these to
    * the semantic matcher). Lock-free; see the class comment.
    */
  def matchTokens(tokens: Vector[String]): Option[Int] = {
    var node = lengthNode(tokens.length)
    val d    = math.min(tokens.length, depth - 2)
    var i    = 0
    while (i < d && (node ne null)) {
      node = node.next(key(tokens(i)))
      i += 1
    }
    val g = if (node eq null) null else best(node, tokens)
    if (g eq null) None else g.found
  }

  /** Leaf for a line: token-count node, then up to `depth - 2` leading
    * tokens; a full node sends a new key to its `<*>` child.
    */
  private def descend(tokens: Vector[String]): Node = {
    val n = tokens.length
    if (n >= byLength.length || (byLength(n) eq null)) {
      if (counts < maxChildren) {
        if (n >= byLength.length) byLength = java.util.Arrays.copyOf(byLength, n + 1)
        byLength(n) = new Node
        counts += 1
      } else if (anyLength eq null) anyLength = new Node
    }
    var node = lengthNode(n)
    tokens.iterator.take(depth - 2).foreach { t =>
      val want = key(t)
      val k =
        if (want == "<*>" || node.children.containsKey(want) || node.children.size < maxChildren) want
        else "<*>"
      node = node.children.computeIfAbsent(k, _ => new Node)
    }
    node
  }

  private def lengthNode(n: Int): Node =
    if (n < byLength.length && (byLength(n) ne null)) byLength(n) else anyLength

  private def key(token: String): String = if (Preprocess.looksVariable(token)) "<*>" else token

  /** The leaf's most similar group, the first mined on a tie; null if
    * none reaches `simThreshold`. Similarity is the share of positions
    * where the line repeats the template's static token; wildcard
    * positions count 0, per the original algorithm. An empty line and an
    * empty template have similarity 1.
    */
  private def best(leaf: Node, tokens: Vector[String]): Group = {
    var top: Group = null
    var topSim     = -1.0
    var j          = 0
    while (j < leaf.groups.length) {
      val g = leaf.groups(j)
      val s =
        if (g.template.length != tokens.length) 0.0
        else if (tokens.isEmpty) 1.0
        else {
          var eq = 0
          var k  = 0
          while (k < g.statics.length) { if (g.words(k) == tokens(g.statics(k))) eq += 1; k += 1 }
          eq.toDouble / tokens.length
        }
      if (s > topSim) { topSim = s; top = g }
      j += 1
    }
    if ((top ne null) && topSim >= simThreshold) top else null
  }

  private def merge(template: Vector[String], tokens: Vector[String]): Vector[String] =
    template.indices.map(i => if (template(i) == tokens(i)) template(i) else "<*>").toVector
}
