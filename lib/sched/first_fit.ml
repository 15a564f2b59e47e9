type t = {
  avail : float array;
  order : int array;  (* processor ids sorted by (avail, id) *)
  mark : Bytes.t;  (* '\001' on the ids being claimed; all '\000' between calls *)
}

let create avail =
  let order = Array.init (Array.length avail) Fun.id in
  (* distinct (avail, id) keys: the sorted permutation is unique *)
  Array.sort
    (fun a b ->
      let c = Float.compare avail.(a) avail.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  { avail; order; mark = Bytes.make (Array.length avail) '\000' }

let ready_at t s = t.avail.(t.order.(s - 1))

let claim t s finish =
  let procs = Array.length t.order in
  for k = 0 to s - 1 do
    Bytes.set t.mark t.order.(k) '\001'
  done;
  let chosen = Array.make s 0 in
  let i = ref 0 in
  for p = 0 to procs - 1 do
    if Bytes.get t.mark p <> '\000' then begin
      Bytes.set t.mark p '\000';
      t.avail.(p) <- finish;
      chosen.(!i) <- p;
      incr i
    end
  done;
  (* Merge [chosen], all at [finish], into the sorted suffix
     [order.(s..)] in place: the write index [k] never passes the read
     index [j], and once every chosen id is placed the rest of the
     suffix already sits where it belongs. *)
  let i = ref 0 and j = ref s and k = ref 0 in
  while !i < s do
    let take_rest =
      !j < procs
      &&
      let b = t.order.(!j) in
      let c = Float.compare finish t.avail.(b) in
      c > 0 || (c = 0 && b < chosen.(!i))
    in
    if take_rest then begin
      t.order.(!k) <- t.order.(!j);
      incr j
    end
    else begin
      t.order.(!k) <- chosen.(!i);
      incr i
    end;
    incr k
  done;
  chosen
