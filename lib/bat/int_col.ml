(* The backing store is an unboxed [Bigarray.Array1] of native ints: the
   payload lives outside the OCaml heap (no per-element boxing, never
   scanned or moved by the GC), loads/stores compile to plain word
   accesses, and [Array1.blit] over a [sub] window is a memcpy.  The GC
   independence is what makes the column safe to share read-only across
   worker domains in the morsel scheduler. *)

type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { mutable data : buffer; mutable len : int }

let alloc capacity : buffer = Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { data = alloc capacity; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let check t i fn =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Int_col.%s: index %d out of bounds [0,%d)" fn i t.len)

let get t i =
  check t i "get";
  Bigarray.Array1.unsafe_get t.data i

let unsafe_get t i = Bigarray.Array1.unsafe_get t.data i

let set t i v =
  check t i "set";
  Bigarray.Array1.unsafe_set t.data i v

let unsafe_set t i v = Bigarray.Array1.unsafe_set t.data i v

let grow t needed =
  let cap = max (2 * Bigarray.Array1.dim t.data) needed in
  let fresh = alloc cap in
  if t.len > 0 then
    Bigarray.Array1.blit (Bigarray.Array1.sub t.data 0 t.len) (Bigarray.Array1.sub fresh 0 t.len);
  t.data <- fresh

let reserve t extra =
  if extra < 0 then invalid_arg "Int_col.reserve: negative count";
  if t.len + extra > Bigarray.Array1.dim t.data then grow t (t.len + extra)

let append t v =
  if t.len = Bigarray.Array1.dim t.data then grow t (t.len + 1);
  Bigarray.Array1.unsafe_set t.data t.len v;
  let i = t.len in
  t.len <- t.len + 1;
  i

let append_unit t v = ignore (append t v)

(* Bulk appends: the copy-phase kernels of the staircase join emit whole
   runs of consecutive pre ranks (or slices of a view's pre column), so
   the per-element capacity check and length bump are hoisted out of the
   loop and the data moves with one blit / one tight fill. *)

let append_slice t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg
      (Printf.sprintf "Int_col.append_slice: slice [%d,%d) out of bounds [0,%d)" pos (pos + len)
         (Array.length src));
  reserve t len;
  let data = t.data and base = t.len in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set data (base + k) (Array.unsafe_get src (pos + k))
  done;
  t.len <- base + len

let append_col t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > src.len then
    invalid_arg
      (Printf.sprintf "Int_col.append_col: slice [%d,%d) out of bounds [0,%d)" pos (pos + len)
         src.len);
  if len > 0 then begin
    reserve t len;
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.data pos len)
      (Bigarray.Array1.sub t.data t.len len);
    t.len <- t.len + len
  end

let append_range t ~lo ~hi =
  if hi >= lo then begin
    let n = hi - lo + 1 in
    reserve t n;
    let data = t.data and base = t.len in
    for k = 0 to n - 1 do
      Bigarray.Array1.unsafe_set data (base + k) (lo + k)
    done;
    t.len <- base + n
  end

let blit_into t dst ~dst_pos =
  if dst_pos < 0 || dst_pos + t.len > Array.length dst then
    invalid_arg
      (Printf.sprintf "Int_col.blit_into: [%d,%d) out of bounds [0,%d)" dst_pos (dst_pos + t.len)
         (Array.length dst));
  let data = t.data in
  for i = 0 to t.len - 1 do
    Array.unsafe_set dst (dst_pos + i) (Bigarray.Array1.unsafe_get data i)
  done

let blit_into_col t dst ~dst_pos =
  if dst_pos < 0 || dst_pos + t.len > dst.len then
    invalid_arg
      (Printf.sprintf "Int_col.blit_into_col: [%d,%d) out of bounds [0,%d)" dst_pos
         (dst_pos + t.len) dst.len);
  if t.len > 0 then
    Bigarray.Array1.blit (Bigarray.Array1.sub t.data 0 t.len)
      (Bigarray.Array1.sub dst.data dst_pos t.len)

let last t =
  if t.len = 0 then invalid_arg "Int_col.last: empty column";
  Bigarray.Array1.unsafe_get t.data (t.len - 1)

let clear t = t.len <- 0

let of_array a =
  let len = Array.length a in
  let t = create ~capacity:(max len 1) () in
  let data = t.data in
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set data i (Array.unsafe_get a i)
  done;
  t.len <- len;
  t

let of_list l = of_array (Array.of_list l)

let to_array t =
  let data = t.data in
  let a = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get data i)
  done;
  a

let to_list t = Array.to_list (to_array t)

let unsafe_data t = t.data

let iter f t =
  for i = 0 to t.len - 1 do
    f (Bigarray.Array1.unsafe_get t.data i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (Bigarray.Array1.unsafe_get t.data i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Bigarray.Array1.unsafe_get t.data i)
  done;
  !acc

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg
      (Printf.sprintf "Int_col.sub: slice [%d,%d) out of bounds [0,%d)" pos (pos + len) t.len);
  if len = 0 then create ~capacity:1 ()
  else begin
    let fresh = { data = alloc len; len } in
    Bigarray.Array1.blit (Bigarray.Array1.sub t.data pos len) fresh.data;
    fresh
  end

let copy t =
  let fresh = { data = alloc (max 1 t.len); len = t.len } in
  if t.len > 0 then
    Bigarray.Array1.blit (Bigarray.Array1.sub t.data 0 t.len)
      (Bigarray.Array1.sub fresh.data 0 t.len);
  fresh

let is_sorted t =
  let rec loop i =
    i >= t.len
    || (Bigarray.Array1.unsafe_get t.data (i - 1) <= Bigarray.Array1.unsafe_get t.data i
       && loop (i + 1))
  in
  loop 1

let sort t =
  let live = to_array t in
  Array.sort Int.compare live;
  let data = t.data in
  for i = 0 to t.len - 1 do
    Bigarray.Array1.unsafe_set data i (Array.unsafe_get live i)
  done

(* Binary search for the first index whose value satisfies [bound]; values
   must be sorted so that [bound] is monotone (a run of false, then true). *)
let first_such t bound =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bound (Bigarray.Array1.unsafe_get t.data mid) then hi := mid else lo := mid + 1
  done;
  !lo

let first_ge t key = first_such t (fun v -> v >= key)

let first_gt t key = first_such t (fun v -> v > key)

let mem_sorted t v =
  let i = first_ge t v in
  i < t.len && Bigarray.Array1.unsafe_get t.data i = v

let equal a b =
  a.len = b.len
  &&
  let rec loop i =
    i >= a.len
    || (Bigarray.Array1.unsafe_get a.data i = Bigarray.Array1.unsafe_get b.data i && loop (i + 1))
  in
  loop 0

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  iteri (fun i v -> if i = 0 then Format.fprintf ppf "%d" v else Format.fprintf ppf ";@ %d" v) t;
  Format.fprintf ppf "]@]"
