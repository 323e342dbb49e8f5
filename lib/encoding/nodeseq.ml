type t = int array

let empty = [||]

let singleton pre =
  if pre < 0 then invalid_arg "Nodeseq.singleton: negative preorder rank";
  [| pre |]

let of_sorted_array a =
  let n = Array.length a in
  if n > 0 && a.(0) < 0 then invalid_arg "Nodeseq.of_sorted_array: negative preorder rank";
  for i = 1 to n - 1 do
    if a.(i - 1) >= a.(i) then
      invalid_arg "Nodeseq.of_sorted_array: ranks must be strictly increasing"
  done;
  a

let of_range ~lo ~hi =
  if hi < lo then empty
  else begin
    if lo < 0 then invalid_arg "Nodeseq.of_range: negative preorder rank";
    Array.init (hi - lo + 1) (fun i -> lo + i)
  end

(* Adopts [a], sorting and deduplicating it in place only when it is not
   already strictly increasing. *)
let of_array a =
  let n = Array.length a in
  let rec increasing i = i >= n || (a.(i - 1) < a.(i) && increasing (i + 1)) in
  let a =
    if increasing 1 then a
    else begin
      Array.sort Int.compare a;
      let j = ref 0 in
      for i = 1 to n - 1 do
        if a.(i) <> a.(!j) then begin
          incr j;
          a.(!j) <- a.(i)
        end
      done;
      Array.sub a 0 (!j + 1)
    end
  in
  if n > 0 && a.(0) < 0 then invalid_arg "Nodeseq.of_array: negative preorder rank";
  a

let of_unsorted l = of_array (Array.of_list l)

let of_list = of_unsorted

let length = Array.length

let is_empty s = Array.length s = 0

let get s i =
  if i < 0 || i >= Array.length s then invalid_arg "Nodeseq.get: index out of bounds";
  s.(i)

let first s = if Array.length s = 0 then None else Some s.(0)

let last s = if Array.length s = 0 then None else Some s.(Array.length s - 1)

let mem s pre =
  let lo = ref 0 and hi = ref (Array.length s) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) >= pre then hi := mid else lo := mid + 1
  done;
  !lo < Array.length s && s.(!lo) = pre

let to_array s = Array.copy s

let unsafe_array s = s

let to_list = Array.to_list

let iter = Array.iter

let fold_left = Array.fold_left

(* One call of [p] per element, in order — callers pass closures that
   book counters or advance merge cursors.  The kept elements collect in
   an unboxed column off the OCaml heap; the result is allocated once,
   at its exact length. *)
let filter p s =
  let n = Array.length s in
  if n = 0 then s
  else begin
    let kept = Scj_bat.Int_col.create ~capacity:n () in
    Array.iter (fun v -> if p v then Scj_bat.Int_col.append_unit kept v) s;
    if Scj_bat.Int_col.length kept = n then s else Scj_bat.Int_col.to_array kept
  end

(* The first [k] entries of a merge's output buffer, copied only when
   the merge left part of it unused. *)
let fitted out k = if k = Array.length out then out else Array.sub out 0 k

let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let va = a.(!i) and vb = b.(!j) in
      let v =
        if va < vb then begin
          incr i;
          va
        end
        else if vb < va then begin
          incr j;
          vb
        end
        else begin
          incr i;
          incr j;
          va
        end
      in
      out.(!k) <- v;
      incr k
    done;
    while !i < na do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < nb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    fitted out !k
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let va = a.(!i) and vb = b.(!j) in
    if va < vb then incr i
    else if vb < va then incr j
    else begin
      out.(!k) <- va;
      incr i;
      incr j;
      incr k
    end
  done;
  fitted out !k

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na do
    let va = a.(!i) in
    while !j < nb && b.(!j) < va do
      incr j
    done;
    if !j >= nb || b.(!j) <> va then begin
      out.(!k) <- va;
      incr k
    end;
    incr i
  done;
  fitted out !k

let equal a b = a = b

let pp ppf s =
  Format.fprintf ppf "@[<h>(";
  Array.iteri (fun i v -> if i = 0 then Format.fprintf ppf "%d" v else Format.fprintf ppf ",@ %d" v) s;
  Format.fprintf ppf ")@]"
