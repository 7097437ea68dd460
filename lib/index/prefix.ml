(* Prefix-filter index over a Jaccard-family space.  Why the prefix and
   the size bounds never drop a neighbor is argued in prefix.mli. *)

type t = {
  space : Space.t;
  sets : int array array;  (* point id -> its set as ranks, ascending *)
  postings : int array array;  (* rank -> ascending ids of its holders *)
  empties : int array;  (* ascending ids of the points with an empty set *)
}

let index space ids =
  let raw = Array.map (Space.set space) ids in
  let universe =
    Array.fold_left (Array.fold_left (fun m tok -> max m (tok + 1))) 0 raw
  in
  let freq = Array.make universe 0 in
  Array.iter (Array.iter (fun tok -> freq.(tok) <- freq.(tok) + 1)) raw;
  (* rarest first, ties by token id: short prefixes with short postings *)
  let by_rank = Array.init universe Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare freq.(a) freq.(b) with 0 -> Int.compare a b | c -> c)
    by_rank;
  let rank = Array.make universe 0 in
  Array.iteri (fun r tok -> rank.(tok) <- r) by_rank;
  let sets =
    Array.map
      (fun s ->
        let r = Array.map (fun tok -> rank.(tok)) s in
        Array.sort Int.compare r;
        r)
      raw
  in
  let postings = Array.map (fun tok -> Array.make freq.(tok) 0) by_rank in
  let filled = Array.make universe 0 in
  (* ids ascend, so every posting list comes out ascending *)
  Array.iteri
    (fun i s ->
      Array.iter
        (fun r ->
          postings.(r).(filled.(r)) <- i;
          filled.(r) <- filled.(r) + 1)
        s)
    sets;
  let empties =
    Array.of_list (List.filter (fun i -> sets.(i) = [||]) (Array.to_list ids))
  in
  { space; sets; postings; empties }

let build space =
  if Space.is_int_metric space then
    invalid_arg "Index.Prefix: Jaccard-family space required";
  Space.build ~name:"prefix" space (index space)

let range_stats t ~eps q =
  let sp = t.space in
  let n = Array.length t.sets in
  let probes = ref 0 and prunes = ref 0 in
  let acc = ref [] in
  let probe j =
    if j <> q then begin
      incr probes;
      if Space.within sp ~eps q j then acc := j :: !acc
    end
  in
  let x = t.sets.(q) in
  let lx = float_of_int (Array.length x) in
  let th = 1.0 -. Space.set_eps sp ~eps -. 1e-9 in
  if not (th > 0.0) then
    for j = 0 to n - 1 do
      probe j
    done
  else if Array.length x = 0 then Array.iter probe t.empties
  else begin
    let need = Float.ceil (th *. lx) in
    let prefix = if need > lx then 0 else Array.length x - int_of_float need + 1 in
    let lo = th *. lx and hi = lx /. th in
    let seen = Bytes.make n '\000' in
    Bytes.set seen q '\001';
    for k = 0 to prefix - 1 do
      Array.iter
        (fun j ->
          if Bytes.get seen j = '\000' then begin
            Bytes.set seen j '\001';
            let ly = float_of_int (Array.length t.sets.(j)) in
            if lo <= ly && ly <= hi then probe j else incr prunes
          end)
        t.postings.(x.(k))
    done
  end;
  (List.sort Int.compare !acc, Space.count_query ~probes:!probes ~prunes:!prunes)
