(* Immutable bit sets backed by an int array.  Bit [i] lives in word
   [i / bits_per_word] at position [i mod bits_per_word].  Unused high bits
   of the last word are kept at zero so that [equal]/[compare]/[hash] can
   work word-wise without masking.

   Every set carries a structural digest computed at construction (the
   words were just touched anyway, so the extra pass is cheap), so
   [hash] is O(1) and [equal] rejects most unequal sets on the digest.
   A [Buf] is the one mutable form: hot loops update a buffer in place
   and freeze the result once. *)

let bits_per_word = Sys.int_size

type t = { width : int; words : int array; digest : int }

let width s = s.width

let compute_digest width words =
  (* Word-wise polynomial hash; cheap and well distributed for the sizes
     encountered in net analysis (a few words).  Masked non-negative so
     it can index weak-table buckets directly. *)
  Array.fold_left (fun h w -> (h * 486187739) + (w lxor (w lsr 31))) width words
  land max_int

let make width words = { width; words; digest = compute_digest width words }

let n_words width =
  if width = 0 then 0 else ((width - 1) / bits_per_word) + 1

let empty width =
  if width < 0 then invalid_arg "Bitset.empty: negative width";
  make width (Array.make (n_words width) 0)

let check_elt fname width i =
  if i < 0 || i >= width then
    invalid_arg (Printf.sprintf "Bitset.%s: element %d outside [0,%d)" fname i width)

let full width =
  let s = empty width in
  let words = Array.copy s.words in
  for w = 0 to Array.length words - 1 do
    let lo = w * bits_per_word in
    let hi = min width (lo + bits_per_word) in
    let bits = hi - lo in
    words.(w) <- (if bits = bits_per_word then -1 else (1 lsl bits) - 1)
  done;
  make width words

let mem i s =
  check_elt "mem" s.width i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add i s =
  check_elt "add" s.width i;
  let w = i / bits_per_word and b = 1 lsl (i mod bits_per_word) in
  if s.words.(w) land b <> 0 then s
  else begin
    let words = Array.copy s.words in
    words.(w) <- words.(w) lor b;
    make s.width words
  end

let remove i s =
  check_elt "remove" s.width i;
  let w = i / bits_per_word and b = 1 lsl (i mod bits_per_word) in
  if s.words.(w) land b = 0 then s
  else begin
    let words = Array.copy s.words in
    words.(w) <- words.(w) land lnot b;
    make s.width words
  end

let singleton width i = add i (empty width)

let of_list width elements = List.fold_left (fun s i -> add i s) (empty width) elements

let of_array width elements = Array.fold_left (fun s i -> add i s) (empty width) elements

let check_widths fname a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Bitset.%s: width mismatch (%d vs %d)" fname a.width b.width)

let binop fname op a b =
  check_widths fname a b;
  make a.width (Array.map2 op a.words b.words)

let union a b = if a == b then a else binop "union" ( lor ) a b
let inter a b = if a == b then a else binop "inter" ( land ) a b
let diff a b = binop "diff" (fun x y -> x land lnot y) a b

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let equal a b =
  a == b || (a.digest = b.digest && a.width = b.width && a.words = b.words)

(* The order of [Stdlib.compare] on the words, without its generic
   traversal: the first differing word decides, as a signed int, so a
   word with its sign bit (bit [bits_per_word - 1]) set is the smaller.
   [Gpn.World_set]'s variable order follows this order. *)
let compare a b =
  if a == b then 0
  else begin
    let c = Int.compare a.width b.width in
    if c <> 0 then c
    else begin
      let wa = a.words and wb = b.words in
      let n = Array.length wa in
      let rec loop i =
        if i >= n then 0
        else if wa.(i) = wb.(i) then loop (i + 1)
        else Int.compare wa.(i) wb.(i)
      in
      loop 0
    end
  end

let hash s = s.digest

let rec subset_words wa wb i =
  i < 0 || (wa.(i) land lnot wb.(i) = 0 && subset_words wa wb (i - 1))

let subset a b =
  check_widths "subset" a b;
  a == b || subset_words a.words b.words (Array.length a.words - 1)

let rec disjoint_words wa wb i =
  i < 0 || (wa.(i) land wb.(i) = 0 && disjoint_words wa wb (i - 1))

let disjoint a b =
  check_widths "disjoint" a b;
  disjoint_words a.words b.words (Array.length a.words - 1)

let intersects a b = not (disjoint a b)

let popcount word =
  let rec loop w acc = if w = 0 then acc else loop (w land (w - 1)) (acc + 1) in
  loop word 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    while !word <> 0 do
      let lsb = !word land - !word in
      let rec bit_index b i = if b = 1 then i else bit_index (b lsr 1) (i + 1) in
      f ((w * bits_per_word) + bit_index lsb 0);
      word := !word land (!word - 1)
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let choose s =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) s;
    raise Not_found
  with Found i -> i

let for_all p s =
  let exception Fail in
  try
    iter (fun i -> if not (p i) then raise Fail) s;
    true
  with Fail -> false

let exists p s = not (for_all (fun i -> not (p i)) s)

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let pp ?(name = string_of_int) () ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf i -> Format.pp_print_string ppf (name i)))
    (elements s)

let to_string ?name s = Format.asprintf "%a" (pp ?name ()) s

module Buf = struct
  type bitset = t
  type t = { width : int; words : int array }

  let create width = { width; words = Array.make (n_words width) 0 }

  let check fname (b : t) (s : bitset) =
    if b.width <> s.width then
      invalid_arg
        (Printf.sprintf "Bitset.Buf.%s: width mismatch (%d vs %d)" fname b.width
           s.width)

  let load b (s : bitset) =
    check "load" b s;
    Array.blit s.words 0 b.words 0 (Array.length b.words)

  let add b i =
    check_elt "Buf.add" b.width i;
    let w = i / bits_per_word in
    b.words.(w) <- b.words.(w) lor (1 lsl (i mod bits_per_word))

  let remove b i =
    check_elt "Buf.remove" b.width i;
    let w = i / bits_per_word in
    b.words.(w) <- b.words.(w) land lnot (1 lsl (i mod bits_per_word))

  let fire b ~(pre : bitset) ~(post : bitset) =
    check "fire" b pre;
    check "fire" b post;
    let words = b.words in
    for i = 0 to Array.length words - 1 do
      words.(i) <- (words.(i) land lnot pre.words.(i)) lor post.words.(i)
    done

  let contains b (s : bitset) =
    check "contains" b s;
    subset_words s.words b.words (Array.length b.words - 1)

  let freeze b = make b.width (Array.copy b.words)
end
