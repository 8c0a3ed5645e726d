package repro.parse

/** Message preprocessing shared by every parser.
  *
  * Implements the paper's recommended preliminary step (§IV): extract
  * structured (JSON) data concatenated to the free text *before* parsing,
  * which shortens messages and raises template-discovery rates.
  */
object Preprocess {

  /** Space tokenization — the paper's token definition (§IV). One scan,
    * equal to `message.trim.split("\\s+").filter(_.nonEmpty)`: the ends
    * are trimmed of every char ≤ U+0020, the inside is split on runs of
    * the six regex `\s` chars only.
    */
  def tokenize(message: String): Vector[String] = {
    var end = message.length
    while (end > 0 && message.charAt(end - 1) <= ' ') end -= 1
    var i = 0
    while (i < end && message.charAt(i) <= ' ') i += 1
    val out = Vector.newBuilder[String]
    while (i < end) {
      val start = i
      while (i < end && !isSpace(message.charAt(i))) i += 1
      out += message.substring(start, i)
      while (i < end && isSpace(message.charAt(i))) i += 1
    }
    out.result()
  }

  /** Regex `\s`: `[ \t\n\x0B\f\r]`. */
  private def isSpace(c: Char): Boolean =
    c == ' ' || c == '\t' || c == '\n' || c == '\u000B' || c == '\f' || c == '\r'

  /** Line terminators, which regex `.` does not cross. */
  private def isLineEnd(c: Char): Boolean =
    c == '\n' || c == '\r' || c == '\u0085' || c == '\u2028' || c == '\u2029'

  /** Split a message into (free text, structured payload string).
    * Only a trailing `{...}` block is treated as structured data, the
    * common "API-like service" pattern the paper describes.
    *
    * One scan, equal to the first match of `\s*(\{.*\})\s*$`: the
    * payload ends at the last `}` before trailing `\s` (and one final
    * non-`\s` line terminator, before which `$` also matches), and starts
    * at the first `{` after the last line terminator before that `}`.
    */
  def extractStructured(message: String): (String, Option[String]) = {
    var end = message.length
    if (end > 0 && !isSpace(message.charAt(end - 1)) && isLineEnd(message.charAt(end - 1))) end -= 1
    while (end > 0 && isSpace(message.charAt(end - 1))) end -= 1
    val close = end - 1
    var open  = -1
    if (close > 0 && message.charAt(close) == '}') {
      var i = close - 1
      while (i >= 0 && !isLineEnd(message.charAt(i))) {
        if (message.charAt(i) == '{') open = i
        i -= 1
      }
    }
    var start = open
    while (start > 0 && isSpace(message.charAt(start - 1))) start -= 1
    if (start > 0) (message.substring(0, start).trim, Some(message.substring(open, close + 1)))
    else (message.trim, None)
  }

  /** Does the token look like a variable? Used for Drain's digit-aware
    * tree descent and by the semantic matcher. One scan,
    * equal to: after one trailing `,` is stripped, the token holds a digit
    * or is an id matching `(blk|vol|req|i)[-_][\w-]+`. (Numbers and IPs
    * hold a digit.)
    */
  def looksVariable(tok: String): Boolean = {
    val end = if (tok.endsWith(",")) tok.length - 1 else tok.length
    var i   = 0
    while (i < end) { if (tok.charAt(i).isDigit) return true; i += 1 }
    val prefix =
      if (tok.startsWith("blk") || tok.startsWith("vol") || tok.startsWith("req")) 3
      else if (tok.startsWith("i")) 1
      else return false
    if (end < prefix + 2 || (tok.charAt(prefix) != '-' && tok.charAt(prefix) != '_')) return false
    i = prefix + 1
    while (i < end) { if (!isIdChar(tok.charAt(i))) return false; i += 1 }
    true
  }

  /** Regex `[\w-]`. */
  private def isIdChar(c: Char): Boolean =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' || c == '-'
}
