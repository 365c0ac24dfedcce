//! Deterministic token accounting.
//!
//! The paper measures context cost in `o200k_base` tokens (§5.4: "each
//! control contributes 15 tokens on average"). We substitute a
//! deterministic approximation: whitespace-split words contribute
//! `ceil(word_len / 4)` tokens, plus one token per punctuation/structure
//! character run. This tracks BPE counts closely enough for relative
//! accounting, which is all the reproduction needs.
//!
//! The count is one streaming state machine, [`Counter`]: feeding the
//! pieces of a text in order counts exactly what [`count`] returns on
//! their concatenation, because the state (open word length, open
//! punctuation run) carries across piece boundaries. Prompt renderers
//! write their pieces into a [`Sink`] — a `String` to produce the text,
//! a `Counter` to charge it — so a prompt's token cost is computed
//! without ever materializing the prompt, and the text and its count
//! come from the same renderer by construction.

/// Approximate token count of a text: a one-piece [`Counter`].
///
/// # Examples
///
/// ```
/// use dmi_core::tokens::count;
///
/// assert_eq!(count(""), 0);
/// assert!(count("Font Color") >= 2);
/// let long = "x".repeat(40);
/// assert_eq!(count(&long), 10);
/// ```
pub fn count(text: &str) -> usize {
    let mut c = Counter::new();
    c.feed(text);
    c.finish()
}

/// Character classes, as `u8`s so one table lookup classifies a byte.
const WORD: u8 = 0;
const SPACE: u8 = 1;
const PUNCT: u8 = 2;
/// Any byte of a multi-byte character: decode it, then classify the
/// `char`.
const NON_ASCII: u8 = 3;

/// The class of every byte. ASCII entries match `char::is_alphanumeric`
/// and `char::is_whitespace` on the same code point (the latter includes
/// the vertical tab, unlike `u8::is_ascii_whitespace`).
static BYTE_CLASS: [u8; 256] = {
    let mut table = [NON_ASCII; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = match b as u8 {
            b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' => WORD,
            b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r' => SPACE,
            _ => PUNCT,
        };
        b += 1;
    }
    table
};

fn char_class(ch: char) -> u8 {
    if ch.is_alphanumeric() {
        WORD
    } else if ch.is_whitespace() {
        SPACE
    } else {
        PUNCT
    }
}

/// Streaming token counter: [`count`] over a text fed in pieces.
///
/// # Examples
///
/// ```
/// use dmi_core::tokens::{count, Counter};
///
/// let mut c = Counter::new();
/// for piece in ["Font Col", "", "or...", "(Button)"] {
///     c.feed(piece);
/// }
/// assert_eq!(c.finish(), count("Font Color...(Button)"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    tokens: usize,
    /// Characters in the word still open at the end of the last piece.
    word_len: usize,
    /// Whether the last piece ended inside a punctuation run.
    punct_run: bool,
}

impl Counter {
    /// A counter that has seen no text.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Counts the next piece of the text. ASCII bytes are classified by
    /// table, and a run of ASCII word bytes is skipped in one tight loop
    /// (about twice as fast as classifying byte by byte); other
    /// characters are decoded and classified by `char`'s Unicode
    /// properties.
    // Always inlined: renderers feed about ten short pieces per line,
    // most of them constants. Inlined into the renderer, the full-Excel
    // tree streams about twice as fast as with a call per piece.
    #[inline(always)]
    pub fn feed(&mut self, piece: &str) {
        // Work on locals so the state stays in registers.
        let Counter { mut tokens, mut word_len, mut punct_run } = *self;
        let bytes = piece.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let mut class = BYTE_CLASS[usize::from(bytes[i])];
            if class == WORD {
                let start = i;
                i += 1;
                while i < bytes.len() && BYTE_CLASS[usize::from(bytes[i])] == WORD {
                    i += 1;
                }
                word_len += i - start;
                punct_run = false;
                continue;
            }
            if class == NON_ASCII {
                let ch = piece[i..].chars().next().expect("i is a char boundary");
                i += ch.len_utf8();
                class = char_class(ch);
            } else {
                i += 1;
            }
            if class == WORD {
                word_len += 1;
                punct_run = false;
            } else {
                tokens += word_len.div_ceil(4);
                word_len = 0;
                if class == SPACE {
                    punct_run = false;
                } else if !punct_run {
                    tokens += 1;
                    punct_run = true;
                }
            }
        }
        *self = Counter { tokens, word_len, punct_run };
    }

    /// The token count of everything fed so far.
    pub fn finish(self) -> usize {
        self.tokens + self.word_len.div_ceil(4)
    }
}

/// Where a prompt renderer writes its text, one `&str` piece at a time:
/// a `String` collects the text, a [`Counter`] charges it.
pub trait Sink {
    /// Appends one piece.
    fn put(&mut self, piece: &str);

    /// Appends a decimal number, rendered on the stack.
    fn put_usize(&mut self, mut n: usize) {
        let mut buf = [0u8; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.put(std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII"));
    }
}

impl Sink for String {
    fn put(&mut self, piece: &str) {
        self.push_str(piece);
    }
}

impl Sink for Counter {
    // Inlined like `feed`, for the same reason.
    #[inline(always)]
    fn put(&mut self, piece: &str) {
        self.feed(piece);
    }
}

/// A running token/cost ledger for one task or session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TokenLedger {
    /// Prompt tokens per LLM call.
    pub prompt: Vec<usize>,
    /// Output tokens per LLM call.
    pub output: Vec<usize>,
}

impl TokenLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one LLM call.
    pub fn record(&mut self, prompt_tokens: usize, output_tokens: usize) {
        self.prompt.push(prompt_tokens);
        self.output.push(output_tokens);
    }

    /// Number of calls recorded.
    pub fn calls(&self) -> usize {
        self.prompt.len()
    }

    /// Total prompt tokens.
    pub fn total_prompt(&self) -> usize {
        self.prompt.iter().sum()
    }

    /// Total output tokens.
    pub fn total_output(&self) -> usize {
        self.output.iter().sum()
    }

    /// Total tokens across prompt and output.
    pub fn total(&self) -> usize {
        self.total_prompt() + self.total_output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_whitespace() {
        assert_eq!(count(""), 0);
        assert_eq!(count("   "), 0);
    }

    #[test]
    fn words_scale_by_quarter_length() {
        assert_eq!(count("abcd"), 1);
        assert_eq!(count("abcde"), 2);
        assert_eq!(count("ab cd"), 2);
    }

    #[test]
    fn punctuation_runs_count_once() {
        assert_eq!(count("a..b"), 3); // a, "..", b
        assert!(count("name(type)_17[") >= 4);
    }

    #[test]
    fn typical_control_description_is_about_15_tokens() {
        let desc =
            "Conditional Formatting(SplitButton)(Highlight interesting cells with rules.)_412";
        let t = count(desc);
        assert!((10..=25).contains(&t), "got {t}");
    }

    /// Every split of `text` at a char boundary, with an empty piece in
    /// the middle, counts what the whole text counts.
    fn assert_splits_agree(text: &str) {
        let whole = count(text);
        for at in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            let mut c = Counter::new();
            c.feed(&text[..at]);
            c.feed("");
            c.feed(&text[at..]);
            assert_eq!(c.finish(), whole, "{text:?} split at {at}");
        }
    }

    #[test]
    fn streaming_matches_whole_text_at_every_split() {
        for text in [
            "",
            "abcd",
            "Font Color...(SplitButton) = 'A1'\n",
            "Save As*(Button) [disabled]\n",
            "B7='a very long va'…\n(3 empty items coalesced)\n",
            "Größe ändern(MenuItem)\u{b}x\u{85}y\t\r\n",
            "日本語テキスト…(Edit)",
            "ℌ𝔢𝔩𝔩𝔬 — ok?!",
        ] {
            assert_splits_agree(text);
        }
    }

    #[test]
    fn byte_table_matches_char_classification() {
        for b in 0u8..=0xFF {
            let want = if b.is_ascii() { char_class(b as char) } else { NON_ASCII };
            assert_eq!(BYTE_CLASS[usize::from(b)], want, "byte {b:#04x}");
        }
    }

    #[test]
    fn sink_numbers_render_in_decimal() {
        let mut s = String::new();
        for n in [0, 7, 10, 1234, usize::MAX] {
            s.put_usize(n);
            s.put(" ");
        }
        assert_eq!(s, format!("0 7 10 1234 {} ", usize::MAX));
    }

    #[test]
    fn ledger_accumulates() {
        let mut l = TokenLedger::new();
        l.record(1000, 50);
        l.record(2000, 80);
        assert_eq!(l.calls(), 2);
        assert_eq!(l.total_prompt(), 3000);
        assert_eq!(l.total_output(), 130);
        assert_eq!(l.total(), 3130);
    }
}
