package kvstore

import "lite/internal/simtime"

// Delete removes a key.
func (k *Client) Delete(p *simtime.Proc, key string) error {
	key = k.prefix + key
	if _, err := k.roundTrip(p, k.serverFor(key), request{op: opDelete, key: key}, false); err != nil {
		return err
	}
	k.dropHandle(key)
	return nil
}
